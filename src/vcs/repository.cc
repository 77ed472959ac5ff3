#include "src/vcs/repository.h"

#include <utility>

namespace vc {

Repository::Repository(const Repository& other)
    : authors_(other.authors_), commits_(other.commits_), file_log_(other.file_log_) {
  for (const auto& [path, log] : file_log_) {
    blame_cache_.try_emplace(path);
  }
}

Repository& Repository::operator=(const Repository& other) {
  if (this != &other) {
    *this = Repository(other);
  }
  return *this;
}

AuthorId Repository::AddAuthor(std::string name) {
  authors_.push_back({std::move(name)});
  return static_cast<AuthorId>(authors_.size() - 1);
}

AuthorId Repository::FindAuthor(const std::string& name) const {
  for (size_t i = 0; i < authors_.size(); ++i) {
    if (authors_[i].name == name) {
      return static_cast<AuthorId>(i);
    }
  }
  return kInvalidAuthor;
}

CommitId Repository::AddCommit(AuthorId author, int64_t timestamp, std::string message,
                               std::map<std::string, std::string> changed_files,
                               std::set<std::string> deleted_files) {
  Commit commit;
  commit.id = static_cast<CommitId>(commits_.size());
  commit.author = author;
  commit.timestamp = timestamp;
  commit.message = std::move(message);
  commit.files = std::move(changed_files);
  commit.deleted = std::move(deleted_files);
  // Cached blame states are NOT invalidated here: they record how far into
  // the per-file log they have folded, and Blame() lazily advances them over
  // the new entries.
  for (const auto& [path, content] : commit.files) {
    file_log_[path].push_back(commit.id);
    blame_cache_.try_emplace(path);
  }
  for (const std::string& path : commit.deleted) {
    file_log_[path].push_back(commit.id);
    blame_cache_.try_emplace(path);
  }
  commits_.push_back(std::move(commit));
  return commits_.back().id;
}

const std::string* Repository::FindFileAt(const std::string& path, CommitId commit) const {
  auto it = file_log_.find(path);
  if (it == file_log_.end()) {
    return nullptr;
  }
  // Walk the per-file log backwards to the newest touch <= commit.
  const std::vector<CommitId>& log = it->second;
  for (size_t i = log.size(); i-- > 0;) {
    if (log[i] > commit) {
      continue;
    }
    const Commit& c = commits_[log[i]];
    if (c.deleted.count(path) > 0) {
      return nullptr;
    }
    auto file_it = c.files.find(path);
    if (file_it != c.files.end()) {
      return &file_it->second;
    }
  }
  return nullptr;
}

const std::string* Repository::FindHead(const std::string& path) const {
  if (commits_.empty()) {
    return nullptr;
  }
  return FindFileAt(path, static_cast<CommitId>(commits_.size() - 1));
}

std::optional<std::string> Repository::FileAt(const std::string& path, CommitId commit) const {
  const std::string* content = FindFileAt(path, commit);
  return content == nullptr ? std::nullopt : std::optional<std::string>(*content);
}

std::optional<std::string> Repository::Head(const std::string& path) const {
  const std::string* content = FindHead(path);
  return content == nullptr ? std::nullopt : std::optional<std::string>(*content);
}

std::vector<std::string> Repository::ListFiles() const {
  std::vector<std::string> files;
  for (const auto& [path, log] : file_log_) {
    if (FindHead(path) != nullptr) {
      files.push_back(path);
    }
  }
  return files;
}

std::vector<CommitId> Repository::LogOf(const std::string& path) const {
  auto it = file_log_.find(path);
  return it == file_log_.end() ? std::vector<CommitId>{} : it->second;
}

void Repository::AdvanceBlame(const std::string& path, CommitId up_to,
                              BlameReplayState& state) const {
  auto it = file_log_.find(path);
  if (it == file_log_.end()) {
    return;
  }
  const std::vector<CommitId>& log = it->second;
  for (; state.log_index < log.size(); ++state.log_index) {
    CommitId commit_id = log[state.log_index];
    if (commit_id > up_to) {
      break;
    }
    const Commit& commit = commits_[commit_id];
    if (commit.deleted.count(path) > 0) {
      state.attribution.clear();
      state.lines.clear();
      state.exists = false;
      continue;
    }
    auto file_it = commit.files.find(path);
    if (file_it == commit.files.end()) {
      continue;
    }
    std::vector<std::string_view> next_lines = SplitLines(file_it->second);
    if (!state.exists) {
      // (Re)creation: every line belongs to this commit.
      state.attribution.assign(next_lines.size(), {commit_id, commit.author});
      state.lines = std::move(next_lines);
      state.exists = true;
      continue;
    }
    std::vector<Edit> edits = DiffLines(state.lines, next_lines);
    std::vector<LineOrigin> next_attr;
    next_attr.reserve(next_lines.size());
    for (const Edit& edit : edits) {
      if (edit.op == EditOp::kKeep) {
        next_attr.push_back(state.attribution[edit.old_index]);
      } else if (edit.op == EditOp::kInsert) {
        next_attr.push_back({commit_id, commit.author});
      }
    }
    state.attribution = std::move(next_attr);
    state.lines = std::move(next_lines);
  }
}

const std::vector<LineOrigin>& Repository::Blame(const std::string& path) const {
  auto it = blame_cache_.find(path);
  if (it == blame_cache_.end()) {
    static const std::vector<LineOrigin> kNoLines;
    return kNoLines;
  }
  AdvanceBlame(path, static_cast<CommitId>(commits_.size() - 1), it->second);
  return it->second.attribution;
}

std::vector<LineOrigin> Repository::BlameAt(const std::string& path, CommitId commit) const {
  BlameReplayState state;
  AdvanceBlame(path, commit, state);
  return std::move(state.attribution);
}

Repository Repository::PrefixCopy(CommitId up_to) const {
  Repository copy;
  for (const Author& author : authors_) {
    copy.AddAuthor(author.name);
  }
  for (const Commit& commit : commits_) {
    if (commit.id > up_to) {
      break;
    }
    copy.AddCommit(commit.author, commit.timestamp, commit.message, commit.files,
                   commit.deleted);
  }
  return copy;
}

std::vector<int> Repository::ChangedLines(const std::string& path, CommitId commit) const {
  const Commit& c = commits_[commit];
  auto file_it = c.files.find(path);
  if (file_it == c.files.end()) {
    return {};
  }
  // Find the previous content.
  const std::string* prev = commit > 0 ? FindFileAt(path, commit - 1) : nullptr;
  std::vector<std::string_view> new_lines = SplitLines(file_it->second);
  if (prev == nullptr) {
    std::vector<int> all(new_lines.size());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<int>(i) + 1;
    }
    return all;
  }
  std::vector<std::string_view> old_lines = SplitLines(*prev);
  std::vector<int> changed;
  for (const Edit& edit : DiffLines(old_lines, new_lines)) {
    if (edit.op == EditOp::kInsert) {
      changed.push_back(edit.new_index + 1);
    }
  }
  return changed;
}

}  // namespace vc
