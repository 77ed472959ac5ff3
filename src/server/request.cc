#include "src/server/request.h"

#include <set>

#include "src/support/json_reader.h"
#include "src/support/json_writer.h"

namespace vc {

const char* ServeMethodName(ServeMethod method) {
  switch (method) {
    case ServeMethod::kPing:
      return "ping";
    case ServeMethod::kAnalyze:
      return "analyze";
    case ServeMethod::kDiff:
      return "diff";
    case ServeMethod::kHistory:
      return "history";
    case ServeMethod::kReport:
      return "report";
    case ServeMethod::kShutdown:
      return "shutdown";
  }
  return "?";
}

bool ParseServeRequest(const std::string& payload, ServeRequest* out, std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> value = ParseJson(payload, &parse_error);
  if (!value.has_value()) {
    *error = "invalid JSON payload: " + parse_error;
    return false;
  }
  if (!value->IsObject()) {
    *error = "request payload must be a JSON object";
    return false;
  }
  out->id = value->GetString("id");
  const std::string method = value->GetString("method");
  if (method == "ping") {
    out->method = ServeMethod::kPing;
  } else if (method == "analyze") {
    out->method = ServeMethod::kAnalyze;
  } else if (method == "diff") {
    out->method = ServeMethod::kDiff;
  } else if (method == "history") {
    out->method = ServeMethod::kHistory;
  } else if (method == "report") {
    out->method = ServeMethod::kReport;
  } else if (method == "shutdown") {
    out->method = ServeMethod::kShutdown;
  } else if (method.empty()) {
    *error = "request has no \"method\"";
    return false;
  } else {
    *error = "unknown method \"" + method + "\"";
    return false;
  }
  out->project = value->GetString("project");
  const bool needs_project = out->method != ServeMethod::kPing &&
                             out->method != ServeMethod::kShutdown;
  if (needs_project && out->project.empty()) {
    *error = std::string(ServeMethodName(out->method)) + " request has no \"project\"";
    return false;
  }
  if (value->Has("sources")) {
    const JsonValue& sources = value->Get("sources");
    if (!sources.IsArray()) {
      *error = "\"sources\" must be an array";
      return false;
    }
    std::set<std::string> paths;
    for (const JsonValue& entry : sources.Items()) {
      std::string path = entry.GetString("path");
      if (path.empty()) {
        *error = "source entry has no \"path\"";
        return false;
      }
      if (!paths.insert(path).second) {
        // A snapshot holds one content per path; a batch run has no way to
        // read two.
        *error = "\"sources\" repeats path \"" + path + "\"";
        return false;
      }
      out->sources.emplace_back(std::move(path), entry.GetString("content"));
    }
  }
  if (out->method == ServeMethod::kAnalyze && out->sources.empty()) {
    *error = "analyze request has no \"sources\"";
    return false;
  }
  out->jobs = static_cast<int>(value->GetInt("jobs", 1));
  if (out->jobs < 0) {
    *error = "\"jobs\" must be >= 0";
    return false;
  }
  if (value->Has("checkers")) {
    for (const JsonValue& entry : value->Get("checkers").Items()) {
      out->checkers.push_back(entry.AsString());
    }
  }
  out->fault_spec = value->GetString("fault_inject");
  out->deadline_ms = value->GetDouble("deadline_ms", 0.0);
  out->render = value->GetString("render", "csv");
  if (out->render != "csv" && out->render != "json") {
    *error = "\"render\" must be \"csv\" or \"json\"";
    return false;
  }
  out->debug_sleep_ms = value->GetInt("debug_sleep_ms", 0);
  return true;
}

std::string MakeErrorResponse(const std::string& id, const std::string& code,
                              const std::string& message) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("status", "error");
  json.String("code", code);
  json.String("message", message);
  json.EndObject();
  return json.str();
}

std::string MakeShedResponse(const std::string& id, int64_t retry_after_ms,
                             const std::string& reason) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("status", "shed");
  json.Int("retry_after_ms", retry_after_ms);
  json.String("reason", reason);
  json.EndObject();
  return json.str();
}

std::string MakeDeadlineResponse(const std::string& id, double waited_ms) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("status", "deadline");
  json.Double("waited_ms", waited_ms);
  json.EndObject();
  return json.str();
}

std::string MakePongResponse(const std::string& id) {
  JsonWriter json;
  json.BeginObject();
  json.String("id", id);
  json.String("status", "ok");
  json.String("method", "ping");
  json.EndObject();
  return json.str();
}

}  // namespace vc
