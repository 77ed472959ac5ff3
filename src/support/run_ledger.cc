#include "src/support/run_ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <variant>

#include "src/support/json_reader.h"
#include "src/support/json_writer.h"

namespace vc {

namespace {

std::string FormatRunId(size_t ordinal) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%04zu", ordinal);
  return buf;
}

// One metrics field: its JSON key and the LedgerMetrics member it maps to.
struct MetricField {
  const char* key;
  std::variant<int64_t LedgerMetrics::*, double LedgerMetrics::*> member;
};

// A JSON object of plain fields under metrics.<key>. An optional block (one
// with a `collected` flag) is written, "collected":true first, only when the
// flag is set, and reads back as all zero when absent: records from before
// the block existed and runs that did not produce it load and diff cleanly.
struct MetricBlock {
  const char* key;
  bool LedgerMetrics::*collected;
  std::vector<MetricField> fields;
};

using M = LedgerMetrics;

const MetricBlock kCounters = {
    "counters", nullptr,
    {{"files_parsed", &M::files_parsed}, {"functions_analyzed", &M::functions_analyzed},
     {"candidates_detected", &M::candidates_detected}, {"prune_original", &M::prune_original},
     {"prune_total", &M::prune_total}, {"prune_remaining", &M::prune_remaining},
     {"quarantined_units", &M::quarantined_units}}};

// The blocks after prune_patterns, in record order.
const std::vector<MetricBlock> kTrailingBlocks = {
    {"thread_pool", nullptr,
     {{"workers", &M::pool_workers}, {"tasks", &M::pool_tasks}, {"steals", &M::pool_steals},
      {"idle_seconds", &M::pool_idle_seconds}}},
    // v2: memory accounting (--metrics runs).
    {"memory", &M::mem_collected,
     {{"ast_bytes", &M::mem_ast_bytes}, {"ast_objects", &M::mem_ast_objects},
      {"ir_bytes", &M::mem_ir_bytes}, {"ir_objects", &M::mem_ir_objects},
      {"points_to_bytes", &M::mem_points_to_bytes},
      {"points_to_objects", &M::mem_points_to_objects}, {"strings_bytes", &M::mem_strings_bytes},
      {"strings_objects", &M::mem_strings_objects}, {"tracked_bytes", &M::mem_tracked_bytes},
      {"peak_rss_bytes", &M::mem_peak_rss_bytes}}},
    // v3: scalability-observatory summary (--perf-report runs).
    {"perf", &M::perf_collected,
     {{"wall_seconds", &M::perf_wall_seconds},
      {"critical_path_seconds", &M::perf_critical_path_seconds},
      {"serial_fraction", &M::perf_serial_fraction}, {"utilization", &M::perf_utilization},
      {"max_busy_seconds", &M::perf_max_busy_seconds},
      {"mean_busy_seconds", &M::perf_mean_busy_seconds},
      {"imbalance_ratio", &M::perf_imbalance_ratio}}},
    // v4: incremental-engine summary (per-commit runs).
    {"incremental", &M::inc_collected,
     {{"commit", &M::inc_commit}, {"files_changed", &M::inc_files_changed},
      {"files_reparsed", &M::inc_files_reparsed}, {"functions_total", &M::inc_functions_total},
      {"functions_dirty", &M::inc_functions_dirty}, {"findings_carried", &M::inc_findings_carried},
      {"findings_new", &M::inc_findings_new}, {"findings_fixed", &M::inc_findings_fixed},
      {"cache_hit_rate", &M::inc_cache_hit_rate}, {"seconds", &M::inc_seconds}}},
    // v5: serving summary (daemon and loadgen sessions).
    {"serve", &M::serve_collected,
     {{"wall_seconds", &M::serve_wall_seconds}, {"clients", &M::serve_clients},
      {"requests", &M::serve_requests}, {"succeeded", &M::serve_succeeded},
      {"degraded", &M::serve_degraded}, {"shed", &M::serve_shed}, {"deadline", &M::serve_deadline},
      {"failed", &M::serve_failed}, {"retried", &M::serve_retried}, {"qps", &M::serve_qps},
      {"p50_ms", &M::serve_p50_ms}, {"p95_ms", &M::serve_p95_ms}, {"p99_ms", &M::serve_p99_ms}}},
};

void WriteBlock(JsonWriter& json, const LedgerMetrics& m, const MetricBlock& block) {
  if (block.collected != nullptr && !(m.*block.collected)) {
    return;
  }
  json.Key(block.key).BeginObject();
  if (block.collected != nullptr) {
    json.Bool("collected", true);
  }
  for (const MetricField& field : block.fields) {
    if (const auto* member = std::get_if<int64_t M::*>(&field.member)) {
      json.Int(field.key, m.**member);
    } else {
      json.Double(field.key, m.*std::get<double M::*>(field.member));
    }
  }
  json.EndObject();
}

void ReadBlock(const JsonValue& metrics, LedgerMetrics& m, const MetricBlock& block) {
  const JsonValue& value = metrics.Get(block.key);
  if (block.collected != nullptr) {
    m.*block.collected = value.GetBool("collected");
  }
  for (const MetricField& field : block.fields) {
    if (const auto* member = std::get_if<int64_t M::*>(&field.member)) {
      m.**member = value.GetInt(field.key);
    } else {
      m.*std::get<double M::*>(field.member) = value.GetDouble(field.key);
    }
  }
}

void WriteMetrics(JsonWriter& json, const LedgerMetrics& m) {
  json.Key("metrics").BeginObject();
  json.Bool("collected", m.collected);
  json.Double("analysis_seconds", m.analysis_seconds);
  json.Key("stages").BeginObject();
  for (PipelineStage s : kPipelineStages) {
    json.Double(PipelineStageName(s), m.stage_seconds[s]);
  }
  json.EndObject();
  WriteBlock(json, m, kCounters);
  json.Key("prune_patterns").BeginArray();
  for (const LedgerPrunePattern& pattern : m.prune_patterns) {
    json.BeginObject();
    json.String("name", pattern.name);
    json.Int("tested", pattern.tested);
    json.Int("pruned", pattern.pruned);
    json.EndObject();
  }
  json.EndArray();
  for (const MetricBlock& block : kTrailingBlocks) {
    WriteBlock(json, m, block);
  }
  json.EndObject();  // metrics
}

LedgerMetrics ReadMetrics(const JsonValue& value) {
  LedgerMetrics m;
  m.collected = value.GetBool("collected");
  m.analysis_seconds = value.GetDouble("analysis_seconds");
  const JsonValue& stages = value.Get("stages");
  for (PipelineStage s : kPipelineStages) {
    const char* key = PipelineStageName(s);
    // Records before ledger schema v6 named the cross-scope filter "filter".
    if (s == PipelineStage::kCrossScopeFilter && !stages.Has(key)) {
      key = "filter";
    }
    m.stage_seconds[s] = stages.GetDouble(key);
  }
  ReadBlock(value, m, kCounters);
  for (const JsonValue& pattern : value.Get("prune_patterns").Items()) {
    LedgerPrunePattern p;
    p.name = pattern.GetString("name");
    p.tested = pattern.GetInt("tested");
    p.pruned = pattern.GetInt("pruned");
    m.prune_patterns.push_back(std::move(p));
  }
  for (const MetricBlock& block : kTrailingBlocks) {
    ReadBlock(value, m, block);
  }
  return m;
}

}  // namespace

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string RunRecordToJson(const RunRecord& record) {
  JsonWriter json;
  json.BeginObject();
  json.Int("ledger_schema", RunRecord::kSchemaVersion);
  json.String("run_id", record.run_id);
  json.Int("timestamp_ms", record.timestamp_ms);
  json.String("label", record.label);
  json.String("options", record.options_summary);
  json.Int("jobs", record.jobs);
  json.Bool("degraded", record.degraded);
  json.Key("checkers").BeginArray();
  for (const std::string& name : record.checkers) {
    json.StringValue(name);
  }
  json.EndArray();
  // v2: per-checker stats. Skipped when empty so records round-trip without
  // inventing data for pre-v2 runs.
  if (!record.checker_stats.empty()) {
    json.Key("checker_stats").BeginArray();
    for (const LedgerCheckerStat& stat : record.checker_stats) {
      json.BeginObject();
      json.String("checker", stat.name);
      json.Int("candidates", stat.candidates);
      json.Int("findings", stat.findings);
      json.EndObject();
    }
    json.EndArray();
  }
  json.Key("findings").BeginArray();
  for (const LedgerFinding& finding : record.findings) {
    json.BeginObject();
    json.String("fingerprint", finding.fingerprint);
    json.String("checker", finding.checker);
    json.String("file", finding.file);
    json.Int("line", finding.line);
    json.String("function", finding.function);
    json.String("variable", finding.variable);
    json.String("kind", finding.kind);
    json.Double("familiarity", finding.familiarity);
    json.EndObject();
  }
  json.EndArray();
  WriteMetrics(json, record.metrics);
  json.EndObject();
  return json.str();
}

std::optional<RunRecord> RunRecordFromJson(const std::string& line, std::string* error) {
  std::optional<JsonValue> value = ParseJson(line, error);
  if (!value.has_value()) {
    return std::nullopt;
  }
  if (!value->IsObject() || !value->Has("run_id")) {
    if (error != nullptr) {
      *error = "not a run record object";
    }
    return std::nullopt;
  }
  RunRecord record;
  record.run_id = value->GetString("run_id");
  record.timestamp_ms = value->GetInt("timestamp_ms");
  record.label = value->GetString("label");
  record.options_summary = value->GetString("options");
  record.jobs = static_cast<int>(value->GetInt("jobs", 1));
  // Absent in pre-fault-isolation records; default reads as a clean run.
  record.degraded = value->GetBool("degraded");
  // Absent in pre-framework records, which could only have run unused-def.
  if (value->Has("checkers")) {
    for (const JsonValue& entry : value->Get("checkers").Items()) {
      record.checkers.push_back(entry.AsString());
    }
  } else {
    record.checkers.push_back("unused-def");
  }
  // Absent in pre-v2 records: stays empty ("not recorded").
  if (value->Has("checker_stats")) {
    for (const JsonValue& entry : value->Get("checker_stats").Items()) {
      LedgerCheckerStat stat;
      stat.name = entry.GetString("checker");
      stat.candidates = entry.GetInt("candidates");
      stat.findings = entry.GetInt("findings");
      record.checker_stats.push_back(std::move(stat));
    }
  }
  for (const JsonValue& entry : value->Get("findings").Items()) {
    LedgerFinding finding;
    finding.fingerprint = entry.GetString("fingerprint");
    finding.checker = entry.GetString("checker", "unused-def");
    finding.file = entry.GetString("file");
    finding.line = static_cast<int>(entry.GetInt("line"));
    finding.function = entry.GetString("function");
    finding.variable = entry.GetString("variable");
    finding.kind = entry.GetString("kind");
    finding.familiarity = entry.GetDouble("familiarity");
    record.findings.push_back(std::move(finding));
  }
  record.metrics = ReadMetrics(value->Get("metrics"));
  return record;
}

RunLedger::RunLedger(std::string dir) : dir_(std::move(dir)) {}

std::string RunLedger::LedgerFile() const {
  return (std::filesystem::path(dir_) / "runs.jsonl").string();
}

std::string RunLedger::Append(RunRecord record, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create ledger dir " + dir_ + ": " + ec.message();
    }
    return "";
  }
  if (record.run_id.empty()) {
    std::optional<std::vector<RunRecord>> existing = Load(error);
    if (!existing.has_value()) {
      return "";
    }
    // Number past the highest surviving id, not the record count — after a
    // Compact the count shrinks but reusing dropped ids would collide with
    // the kept tail.
    size_t next = existing->size() + 1;
    for (const RunRecord& prior : *existing) {
      if (prior.run_id.size() > 1 && prior.run_id[0] == 'r') {
        long id = std::strtol(prior.run_id.c_str() + 1, nullptr, 10);
        if (id > 0 && static_cast<size_t>(id) >= next) {
          next = static_cast<size_t>(id) + 1;
        }
      }
    }
    record.run_id = FormatRunId(next);
  }
  // O_APPEND + a single write() of the whole line: POSIX makes each append
  // atomic with respect to other appenders, so two concurrent runs (CI jobs
  // sharing one ledger) can never interleave bytes mid-record. A buffered
  // ofstream would flush in chunks and lose that guarantee.
  const std::string line = RunRecordToJson(record) + '\n';
  int fd = ::open(LedgerFile().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + LedgerFile() + " for append: " + std::strerror(errno);
    }
    return "";
  }
  ssize_t written;
  do {
    written = ::write(fd, line.data(), line.size());
  } while (written < 0 && errno == EINTR);
  const bool ok = written == static_cast<ssize_t>(line.size());
  ::close(fd);
  if (!ok) {
    if (error != nullptr) {
      *error = "write to " + LedgerFile() + " failed";
    }
    return "";
  }
  return record.run_id;
}

std::optional<std::vector<RunRecord>> RunLedger::Load(std::string* error, int* skipped) const {
  std::vector<RunRecord> records;
  std::ifstream in(LedgerFile(), std::ios::binary);
  if (!in) {
    // No ledger yet — an empty history, not an error (first run of a fresh
    // checkout appends to it moments later).
    return records;
  }
  std::string line;
  int bad = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::optional<RunRecord> record = RunRecordFromJson(line);
    if (record.has_value()) {
      records.push_back(std::move(*record));
    } else {
      ++bad;
    }
  }
  if (skipped != nullptr) {
    *skipped = bad;
  }
  (void)error;
  return records;
}

std::optional<RunRecord> RunLedger::Find(const std::string& selector, std::string* error) const {
  std::optional<std::vector<RunRecord>> records = Load(error);
  if (!records.has_value()) {
    return std::nullopt;
  }
  auto fail = [&](const std::string& message) -> std::optional<RunRecord> {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  if (records->empty()) {
    return fail("ledger at " + dir_ + " has no runs");
  }
  std::string sel = selector;
  if (sel.empty() || sel == "latest") {
    sel = "-1";
  } else if (sel == "prev") {
    sel = "-2";
  }
  if (!sel.empty() && sel[0] == 'r') {
    for (const RunRecord& record : *records) {
      if (record.run_id == sel) {
        return record;
      }
    }
    return fail("no run with id '" + sel + "' in " + dir_);
  }
  char* end = nullptr;
  long index = std::strtol(sel.c_str(), &end, 10);
  if (end == sel.c_str() || *end != '\0') {
    return fail("bad run selector '" + selector + "' (expected latest, prev, rNNNN, N, or -N)");
  }
  long size = static_cast<long>(records->size());
  long resolved = index < 0 ? size + index : index - 1;  // 1-based positives
  if (resolved < 0 || resolved >= size) {
    return fail("run selector '" + selector + "' out of range (ledger has " +
                std::to_string(size) + " run(s))");
  }
  return (*records)[static_cast<size_t>(resolved)];
}

int RunLedger::Compact(int keep_last, std::string* error) {
  std::optional<std::vector<RunRecord>> records = Load(error);
  if (!records.has_value()) {
    return -1;
  }
  if (keep_last < 0) {
    keep_last = 0;
  }
  int dropped = static_cast<int>(records->size()) - keep_last;
  if (dropped <= 0) {
    return 0;
  }
  // Rewrite via a temp file + rename so a crash mid-compact never loses the
  // ledger (rename within one directory is atomic on POSIX).
  std::string tmp = LedgerFile() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot open " + tmp;
      }
      return -1;
    }
    for (size_t i = records->size() - static_cast<size_t>(keep_last); i < records->size(); ++i) {
      out << RunRecordToJson((*records)[i]) << '\n';
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, LedgerFile(), ec);
  if (ec) {
    if (error != nullptr) {
      *error = "rename failed: " + ec.message();
    }
    return -1;
  }
  return dropped;
}

}  // namespace vc
