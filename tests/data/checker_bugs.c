// One bug per default checker: unused-def (handle), double-overwrite
// (overwrite), dead-global-store (bump), out-param-unused (drop_out) and
// stale-copy (snapshot). Read by cli_test and by the per-checker smoke in
// tools/check.sh.
int counter;
int get_status(int entry);
void use(int *p);
int handle(int entry, int mode) {
  int ret = get_status(entry);
  ret = mode * 2;
  return ret;
}
void fill(int *out) {
  *out = 3;
}
int overwrite(void) {
  int x;
  use(&x);
  x = 1;
  x = 2;
  return x;
}
void bump(void) {
  counter = 1;
  counter = 2;
}
int drop_out(void) {
  int v;
  fill(&v);
  return 0;
}
int snapshot(int a) {
  int orig = a;
  int copy = orig;
  orig = a + 1;
  return copy + orig;
}
