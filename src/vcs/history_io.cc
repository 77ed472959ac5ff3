#include "src/vcs/history_io.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "src/support/string_util.h"

namespace vc {

namespace {

// Walks the history text one line at a time without materializing a line
// table, tracking 1-based line numbers for error messages. Lines follow
// SplitLines: "a\nb\n" and "a\nb" are both two lines.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  bool Done() const { return pos_ >= text_.size(); }
  // Number of the line the next Take() returns.
  int LineNo() const { return line_no_; }
  // Byte offset of the line the next Take() returns.
  size_t Pos() const { return pos_; }

  std::string_view Take() {
    size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) {
      eol = text_.size();
    }
    std::string_view line = text_.substr(pos_, eol - pos_);
    pos_ = std::min(eol + 1, text_.size());
    ++line_no_;
    return line;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_no_ = 1;
};

// Trim(line) == ">>>" without Trim's per-character locale calls: content
// lines outnumber directives by orders of magnitude, and almost all of them
// are rejected at their first non-blank character.
bool IsCloseMarker(std::string_view line) {
  auto blank = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };  // C-locale isspace
  size_t i = 0;
  while (i < line.size() && blank(line[i])) {
    ++i;
  }
  if (line.compare(i, 3, ">>>") != 0) {
    return false;
  }
  for (i += 3; i < line.size(); ++i) {
    if (!blank(line[i])) {
      return false;
    }
  }
  return true;
}

bool Fail(std::string* error, int line, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + message;
  }
  return false;
}

}  // namespace

std::optional<Repository> LoadHistory(std::string_view text, std::string* error) {
  Repository repo;
  std::map<std::string, AuthorId> authors;
  LineReader reader(text);

  auto intern_author = [&](const std::string& name) {
    auto it = authors.find(name);
    if (it != authors.end()) {
      return it->second;
    }
    AuthorId id = repo.AddAuthor(name);
    authors[name] = id;
    return id;
  };

  while (!reader.Done()) {
    int at = reader.LineNo();
    std::string_view line = Trim(reader.Take());
    if (line.empty() || line.front() == '#') {
      continue;
    }
    if (line != "commit") {
      Fail(error, at, "expected 'commit', got '" + std::string(line) + "'");
      return std::nullopt;
    }

    std::string author_name;
    int64_t timestamp = 0;
    std::string message;
    std::map<std::string, std::string> writes;
    std::set<std::string> deletes;
    bool ended = false;

    while (!reader.Done() && !ended) {
      at = reader.LineNo();
      std::string_view directive = Trim(reader.Take());
      if (directive.empty() || directive.front() == '#') {
        continue;
      }
      if (directive == "end") {
        ended = true;
      } else if (directive.rfind("author ", 0) == 0) {
        author_name = std::string(Trim(directive.substr(7)));
      } else if (directive.rfind("time ", 0) == 0) {
        timestamp = std::strtoll(std::string(Trim(directive.substr(5))).c_str(), nullptr, 10);
      } else if (directive.rfind("message ", 0) == 0) {
        message = std::string(Trim(directive.substr(8)));
      } else if (directive.rfind("delete ", 0) == 0) {
        deletes.insert(std::string(Trim(directive.substr(7))));
      } else if (directive.rfind("write ", 0) == 0) {
        std::string path(Trim(directive.substr(6)));
        if (reader.Done() || Trim(reader.Take()) != "<<<") {
          Fail(error, at, "expected '<<<' after 'write " + path + "'");
          return std::nullopt;
        }
        // Every line before the closing ">>>" line ends in a newline, so the
        // block's content is exactly the text between the two marker lines.
        const size_t begin = reader.Pos();
        bool closed = false;
        while (!reader.Done()) {
          const size_t line_start = reader.Pos();
          if (IsCloseMarker(reader.Take())) {
            writes[path] = std::string(text.substr(begin, line_start - begin));
            closed = true;
            break;
          }
        }
        if (!closed) {
          Fail(error, at, "unterminated content block for '" + path + "'");
          return std::nullopt;
        }
      } else {
        Fail(error, at, "unknown directive '" + std::string(directive) + "'");
        return std::nullopt;
      }
    }
    if (!ended) {
      Fail(error, reader.LineNo(), "commit block missing 'end'");
      return std::nullopt;
    }
    if (author_name.empty()) {
      Fail(error, reader.LineNo(), "commit block missing 'author'");
      return std::nullopt;
    }
    repo.AddCommit(intern_author(author_name), timestamp, std::move(message),
                   std::move(writes), std::move(deletes));
  }
  return repo;
}

std::string SaveHistory(const Repository& repo) {
  std::string out;
  for (CommitId id = 0; id < repo.NumCommits(); ++id) {
    const Commit& commit = repo.GetCommit(id);
    out += "commit\n";
    out += "author " + repo.GetAuthor(commit.author).name + "\n";
    out += "time " + std::to_string(commit.timestamp) + "\n";
    out += "message " + commit.message + "\n";
    for (const auto& [path, content] : commit.files) {
      out += "write " + path + "\n<<<\n";
      out += content;
      if (!content.empty() && content.back() != '\n') {
        out += '\n';
      }
      out += ">>>\n";
    }
    for (const std::string& path : commit.deleted) {
      out += "delete " + path + "\n";
    }
    out += "end\n";
  }
  return out;
}

}  // namespace vc
