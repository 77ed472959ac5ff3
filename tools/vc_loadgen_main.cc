// vc_loadgen — TPC-C-style closed-loop load harness for `valuecheck serve`
// (src/server/loadgen.h; DESIGN.md §19).
//
// Each client thread issues a weighted mix of analyze/diff/history/report/ping
// transactions against deterministically generated per-warehouse codebases,
// retrying shed responses with exponential backoff + jitter and reconnecting
// through chaos (server-side --fault-inject quarantine, client-side
// --kill-rate connection drops). The run ends with:
//
//   * a one-page summary on stdout (accounting identity, QPS, percentiles);
//   * --out FILE: the full report as JSON (default result/BENCH_serve.json);
//   * --ledger DIR: a schema-v5 serve record so `valuecheck history`/`report`
//     trend daemon throughput alongside batch runs.
//
// Exit codes: 0 balanced accounting, 1 accounting imbalance (a leaked or
// double-counted transaction — the invariant the chaos run exists to check),
// 2 usage error.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/server/loadgen.h"
#include "src/support/fault.h"
#include "src/support/file_io.h"
#include "src/support/flags.h"
#include "src/support/json_writer.h"
#include "src/support/run_ledger.h"

namespace {

struct Args {
  vc::LoadGenOptions options;
  std::string out_path = "result/BENCH_serve.json";
  std::string ledger_dir;
  std::string label = "loadgen";
};

vc::FlagTable LoadGenFlags(Args& out) {
  vc::LoadGenOptions& o = out.options;
  return {"vc_loadgen",
          "usage: vc_loadgen (--socket PATH | --port N) [options]\n\n",
          {
              {"--socket", "PATH", "daemon Unix-domain socket", vc::StoreString(o.socket_path)},
              {"--port", "N", "daemon TCP loopback port", vc::StoreInt(o.tcp_port, 1)},
              {"--clients", "N", "concurrent closed-loop clients (default 4)",
               vc::StoreInt(o.clients, 1)},
              {"--warehouses", "N", "projects to spread load over (default 2)",
               vc::StoreInt(o.warehouses, 1)},
              {"--transactions", "N", "transactions per client (default 25)",
               vc::StoreInt(o.transactions_per_client, 1)},
              {"--seed", "N", "warehouse/mix/jitter seed (default 1)", vc::StoreU64(o.seed)},
              {"--jobs", "N", "jobs forwarded in each request (default 1)",
               vc::StoreInt(o.jobs, 0)},
              {"--deadline-ms", "X", "per-request deadline forwarded to the server",
               vc::StoreDouble(o.deadline_ms)},
              {"--fault-inject", "S:R", "SEED:RATE chaos forwarded in analyze requests",
               [&o](const std::string& v) {
                 std::string error;
                 if (vc::FaultInjector::Parse(v, &error).has_value()) {
                   o.fault_spec = v;
                 }
                 return error;
               }},
              {"--edit-rate", "X",
               "probability an analyze sends an edited snapshot\n"
               "(default 0.5)",
               vc::StoreDouble(o.edit_rate)},
              {"--kill-rate", "X",
               "probability of killing the connection right\n"
               "after sending (default 0)",
               vc::StoreDouble(o.kill_rate)},
              {"--max-retries", "N", "retry budget per transaction (default 6)",
               vc::StoreInt(o.max_retries, 0)},
              {"--timeout", "SEC", "per-response wait (default 60)",
               vc::StoreDouble(o.request_timeout_seconds)},
              {"--files", "N", "generated files per warehouse (default 3)",
               vc::StoreInt(o.files_per_warehouse, 1)},
              {"--out", "FILE",
               "JSON report path (default result/BENCH_serve.json;\n"
               "empty string disables)",
               vc::StoreString(out.out_path)},
              {"--ledger", "DIR", "append a serve record to the run ledger",
               vc::StoreString(out.ledger_dir)},
              {"--label", "NAME", "ledger record label (default: loadgen)",
               vc::StoreString(out.label)},
          }};
}

// The BENCH_serve.json document: run metadata + the report body.
std::string BenchJson(const Args& args, const vc::LoadGenReport& report,
                      int64_t timestamp_ms) {
  vc::JsonWriter json;
  json.BeginObject();
  json.String("bench", "serve");
  json.Int("timestamp_ms", timestamp_ms);
  json.Key("options").BeginObject();
  json.String("target", !args.options.socket_path.empty()
                            ? "unix:" + args.options.socket_path
                            : "tcp:127.0.0.1:" + std::to_string(args.options.tcp_port));
  json.Int("clients", args.options.clients);
  json.Int("warehouses", args.options.warehouses);
  json.Int("transactions_per_client", args.options.transactions_per_client);
  json.Int("seed", static_cast<int64_t>(args.options.seed));
  json.Int("jobs", args.options.jobs);
  json.Double("deadline_ms", args.options.deadline_ms);
  json.String("fault_inject", args.options.fault_spec);
  json.Double("edit_rate", args.options.edit_rate);
  json.Double("kill_rate", args.options.kill_rate);
  json.Int("max_retries", args.options.max_retries);
  json.EndObject();
  json.Raw("report", report.ToJson());
  json.EndObject();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const vc::FlagTable flags = LoadGenFlags(args);
  if (std::optional<int> done =
          vc::ParseFlags(flags, std::vector<std::string>(argv + 1, argv + argc), nullptr)) {
    return *done;
  }
  if (args.options.socket_path.empty() && args.options.tcp_port == 0) {
    return vc::FlagError(flags, "a target is required: --socket PATH or --port N");
  }

  vc::LoadGenReport report = vc::RunLoadGen(args.options);
  int64_t timestamp_ms = vc::NowMs();

  std::printf(
      "vc_loadgen: %llu transaction(s) in %.2fs (%.1f tx/s) — %llu ok, "
      "%llu degraded, %llu shed, %llu deadline, %llu failed; %llu retry(ies), "
      "%llu kill(s), %llu reconnect(s)\n",
      static_cast<unsigned long long>(report.transactions), report.wall_seconds,
      report.qps, static_cast<unsigned long long>(report.succeeded),
      static_cast<unsigned long long>(report.degraded),
      static_cast<unsigned long long>(report.shed),
      static_cast<unsigned long long>(report.deadline),
      static_cast<unsigned long long>(report.failed),
      static_cast<unsigned long long>(report.retried),
      static_cast<unsigned long long>(report.kills),
      static_cast<unsigned long long>(report.reconnects));
  std::printf("vc_loadgen: latency p50 %.1f ms, p95 %.1f ms, p99 %.1f ms "
              "(mean %.1f, max %.1f, n=%llu)\n",
              report.p50_ms, report.p95_ms, report.p99_ms, report.mean_ms,
              report.max_ms, static_cast<unsigned long long>(report.latency_count));
  std::printf("vc_loadgen: accounting %s\n",
              report.Balanced() ? "balanced" : "IMBALANCED");

  if (!args.out_path.empty()) {
    std::string error;
    if (!vc::EnsureParentDir(args.out_path, &error)) {
      std::fprintf(stderr, "vc_loadgen: %s\n", error.c_str());
      return 2;
    }
    std::ofstream out(args.out_path, std::ios::trunc | std::ios::binary);
    out << BenchJson(args, report, timestamp_ms) << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "vc_loadgen: cannot write %s\n", args.out_path.c_str());
      return 2;
    }
    std::printf("vc_loadgen: wrote %s\n", args.out_path.c_str());
  }

  if (!args.ledger_dir.empty()) {
    vc::RunRecord record;
    record.label = args.label;
    record.timestamp_ms = timestamp_ms;
    record.jobs = args.options.jobs;
    record.options_summary =
        "loadgen clients=" + std::to_string(args.options.clients) +
        " warehouses=" + std::to_string(args.options.warehouses) +
        (args.options.fault_spec.empty() ? ""
                                         : " fault-inject=" + args.options.fault_spec) +
        (args.options.kill_rate > 0.0
             ? " kill-rate=" + std::to_string(args.options.kill_rate)
             : "");
    record.metrics.serve_collected = true;
    record.metrics.serve_wall_seconds = report.wall_seconds;
    record.metrics.serve_clients = args.options.clients;
    record.metrics.serve_requests = static_cast<int64_t>(report.transactions);
    record.metrics.serve_succeeded = static_cast<int64_t>(report.succeeded);
    record.metrics.serve_degraded = static_cast<int64_t>(report.degraded);
    record.metrics.serve_shed = static_cast<int64_t>(report.shed);
    record.metrics.serve_deadline = static_cast<int64_t>(report.deadline);
    record.metrics.serve_failed = static_cast<int64_t>(report.failed);
    record.metrics.serve_retried = static_cast<int64_t>(report.retried);
    record.metrics.serve_qps = report.qps;
    record.metrics.serve_p50_ms = report.p50_ms;
    record.metrics.serve_p95_ms = report.p95_ms;
    record.metrics.serve_p99_ms = report.p99_ms;
    std::string error;
    vc::RunLedger ledger(args.ledger_dir);
    std::string run_id = ledger.Append(std::move(record), &error);
    if (run_id.empty()) {
      std::fprintf(stderr, "vc_loadgen: ledger append failed: %s\n", error.c_str());
      return 2;
    }
    std::printf("vc_loadgen: recorded run %s in %s\n", run_id.c_str(),
                ledger.LedgerFile().c_str());
  }

  return report.Balanced() ? 0 : 1;
}
