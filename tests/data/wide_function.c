/* A fixture wider than one 64-bit word: wide_fields has more than 64 slots
   (a 70-field struct), many_stores more than 64 distinct stores to one
   slot, so liveness, DefineSets and the pending stores all spill past the
   first word of their bitsets. */

struct wide {
  int f0;
  int f1;
  int f2;
  int f3;
  int f4;
  int f5;
  int f6;
  int f7;
  int f8;
  int f9;
  int f10;
  int f11;
  int f12;
  int f13;
  int f14;
  int f15;
  int f16;
  int f17;
  int f18;
  int f19;
  int f20;
  int f21;
  int f22;
  int f23;
  int f24;
  int f25;
  int f26;
  int f27;
  int f28;
  int f29;
  int f30;
  int f31;
  int f32;
  int f33;
  int f34;
  int f35;
  int f36;
  int f37;
  int f38;
  int f39;
  int f40;
  int f41;
  int f42;
  int f43;
  int f44;
  int f45;
  int f46;
  int f47;
  int f48;
  int f49;
  int f50;
  int f51;
  int f52;
  int f53;
  int f54;
  int f55;
  int f56;
  int f57;
  int f58;
  int f59;
  int f60;
  int f61;
  int f62;
  int f63;
  int f64;
  int f65;
  int f66;
  int f67;
  int f68;
  int f69;
};

int sink(int *p);
int consume(struct wide w);

int wide_fields(int n, int c) {
  struct wide w;
  w.f0 = n + 0;
  w.f1 = n + 1;
  w.f2 = n + 2;
  w.f3 = n + 3;
  w.f4 = n + 4;
  w.f5 = n + 5;
  w.f6 = n + 6;
  w.f7 = n + 7;
  w.f8 = n + 8;
  w.f9 = n + 9;
  w.f10 = n + 10;
  w.f11 = n + 11;
  w.f12 = n + 12;
  w.f13 = n + 13;
  w.f14 = n + 14;
  w.f15 = n + 15;
  w.f16 = n + 16;
  w.f17 = n + 17;
  w.f18 = n + 18;
  w.f19 = n + 19;
  w.f20 = n + 20;
  w.f21 = n + 21;
  w.f22 = n + 22;
  w.f23 = n + 23;
  w.f24 = n + 24;
  w.f25 = n + 25;
  w.f26 = n + 26;
  w.f27 = n + 27;
  w.f28 = n + 28;
  w.f29 = n + 29;
  w.f30 = n + 30;
  w.f31 = n + 31;
  w.f32 = n + 32;
  w.f33 = n + 33;
  w.f34 = n + 34;
  w.f35 = n + 35;
  w.f36 = n + 36;
  w.f37 = n + 37;
  w.f38 = n + 38;
  w.f39 = n + 39;
  w.f40 = n + 40;
  w.f41 = n + 41;
  w.f42 = n + 42;
  w.f43 = n + 43;
  w.f44 = n + 44;
  w.f45 = n + 45;
  w.f46 = n + 46;
  w.f47 = n + 47;
  w.f48 = n + 48;
  w.f49 = n + 49;
  w.f50 = n + 50;
  w.f51 = n + 51;
  w.f52 = n + 52;
  w.f53 = n + 53;
  w.f54 = n + 54;
  w.f55 = n + 55;
  w.f56 = n + 56;
  w.f57 = n + 57;
  w.f58 = n + 58;
  w.f59 = n + 59;
  w.f60 = n + 60;
  w.f61 = n + 61;
  w.f62 = n + 62;
  w.f63 = n + 63;
  w.f64 = n + 64;
  w.f65 = n + 65;
  w.f66 = n + 66;
  w.f67 = n + 67;
  w.f68 = n + 68;
  w.f69 = n + 69;
  if (c) {
    w.f3 = 1;
    w.f65 = 2;
  } else {
    w.f66 = 3;
  }
  while (n > 0) {
    w.f67 = w.f67 + n;
    n = n - 1;
  }
  w.f68 = 0;
  w.f68 = c;
  if (w.f1 > c) {
    return w.f69;
  }
  return consume(w);
}

int many_stores(int n, int c) {
  int acc = n;
  int t = 0;
  sink(&t);
  t = 1;
  t = 2;
  sink(&t);
  if (c > 0) {
    acc = acc + 0;
    acc = acc + 1;
    acc = acc + 2;
    acc = acc + 3;
    acc = 4;
    acc = acc + 5;
    acc = acc + 6;
    t = 7;
    acc = acc + t;
    acc = acc + 8;
    acc = acc + 9;
  }
  if (c > 10) {
    acc = acc + 10;
    acc = acc + 11;
    acc = acc + 12;
    acc = acc + 13;
    acc = 14;
    acc = acc + 15;
    acc = acc + 16;
    t = 17;
    acc = acc + t;
    acc = acc + 18;
    acc = acc + 19;
  }
  if (c > 20) {
    acc = acc + 20;
    acc = acc + 21;
    acc = acc + 22;
    acc = acc + 23;
    acc = 24;
    acc = acc + 25;
    acc = acc + 26;
    t = 27;
    acc = acc + t;
    acc = acc + 28;
    acc = acc + 29;
  }
  if (c > 30) {
    acc = acc + 30;
    acc = acc + 31;
    acc = acc + 32;
    acc = acc + 33;
    acc = 34;
    acc = acc + 35;
    acc = acc + 36;
    t = 37;
    acc = acc + t;
    acc = acc + 38;
    acc = acc + 39;
  }
  if (c > 40) {
    acc = acc + 40;
    acc = acc + 41;
    acc = acc + 42;
    acc = acc + 43;
    acc = 44;
    acc = acc + 45;
    acc = acc + 46;
    t = 47;
    acc = acc + t;
    acc = acc + 48;
    acc = acc + 49;
  }
  if (c > 50) {
    acc = acc + 50;
    acc = acc + 51;
    acc = acc + 52;
    acc = acc + 53;
    acc = 54;
    acc = acc + 55;
    acc = acc + 56;
    t = 57;
    acc = acc + t;
    acc = acc + 58;
    acc = acc + 59;
  }
  if (c > 60) {
    acc = acc + 60;
    acc = acc + 61;
    acc = acc + 62;
    acc = acc + 63;
    acc = 64;
    acc = acc + 65;
    acc = acc + 66;
    t = 67;
    acc = acc + t;
    acc = acc + 68;
    acc = acc + 69;
  }
  while (n > 0) {
    t = n;
    acc = acc - n;
    n = n - 1;
  }
  return acc + t;
}
