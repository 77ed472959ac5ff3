// In-memory version-control store — the reproduction's stand-in for git.
//
// ValueCheck's authorship lookup and DOK familiarity metrics (§4.2, §6) need
// two capabilities from version control: line-level authorship of the current
// file contents (git blame) and per-file commit logs (who delivered how many
// commits to which file). The repository stores snapshot-based commits and
// reconstructs blame by replaying the history with Myers diffs: unchanged
// lines keep their attribution, inserted lines are attributed to the commit
// that introduced them.

#ifndef VALUECHECK_SRC_VCS_REPOSITORY_H_
#define VALUECHECK_SRC_VCS_REPOSITORY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/vcs/diff.h"

namespace vc {

using AuthorId = int32_t;
using CommitId = int32_t;
inline constexpr AuthorId kInvalidAuthor = -1;
inline constexpr CommitId kInvalidCommit = -1;

struct Author {
  std::string name;
};

struct Commit {
  CommitId id = kInvalidCommit;
  AuthorId author = kInvalidAuthor;
  int64_t timestamp = 0;  // seconds; drives "days before detected" (Fig. 7c)
  std::string message;
  // Full new content of every file changed by this commit.
  std::map<std::string, std::string> files;
  std::set<std::string> deleted;
};

// Line-level authorship: which commit (and author) introduced each line.
struct LineOrigin {
  CommitId commit = kInvalidCommit;
  AuthorId author = kInvalidAuthor;
};

class Repository {
 public:
  Repository() = default;
  // The blame cache views this repository's own commit storage, so a copy
  // starts with a cold cache instead of views into the source.
  Repository(const Repository& other);
  Repository& operator=(const Repository& other);
  Repository(Repository&&) = default;
  Repository& operator=(Repository&&) = default;

  AuthorId AddAuthor(std::string name);
  const Author& GetAuthor(AuthorId id) const { return authors_[id]; }
  int NumAuthors() const { return static_cast<int>(authors_.size()); }
  AuthorId FindAuthor(const std::string& name) const;

  CommitId AddCommit(AuthorId author, int64_t timestamp, std::string message,
                     std::map<std::string, std::string> changed_files,
                     std::set<std::string> deleted_files = {});
  const Commit& GetCommit(CommitId id) const { return commits_[id]; }
  int NumCommits() const { return static_cast<int>(commits_.size()); }

  // File contents as of `commit` (inclusive); nullopt if absent or deleted.
  std::optional<std::string> FileAt(const std::string& path, CommitId commit) const;
  std::optional<std::string> Head(const std::string& path) const;
  // Copy-free forms of FileAt/Head: a view of the commit's stored content, or
  // null if absent or deleted. Valid for the repository's lifetime.
  const std::string* FindFileAt(const std::string& path, CommitId commit) const;
  const std::string* FindHead(const std::string& path) const;
  std::vector<std::string> ListFiles() const;

  // Commits that changed `path`, oldest first.
  std::vector<CommitId> LogOf(const std::string& path) const;

  // Line attribution for head (or historical) contents. One entry per line.
  // Head results are cached as resumable replay states: a commit touching the
  // path advances the cached fold instead of replaying the whole log.
  // Blame() may run concurrently for distinct paths (each path owns its
  // cache slot); nothing may run concurrently with AddCommit.
  const std::vector<LineOrigin>& Blame(const std::string& path) const;
  std::vector<LineOrigin> BlameAt(const std::string& path, CommitId commit) const;

  // A new repository containing the same authors and commits 0..up_to — the
  // repository as it existed right after `up_to` landed. This is the baseline
  // the incremental engine is proven equivalent against: analyzing
  // PrefixCopy(c) from scratch must match the engine's per-commit result.
  Repository PrefixCopy(CommitId up_to) const;

  // 1-based line numbers (in the post-commit file) that `commit` introduced
  // or modified in `path`; empty when the commit did not touch the path.
  // Feeds incremental analysis: only functions overlapping these lines need
  // re-analysis after the commit.
  std::vector<int> ChangedLines(const std::string& path, CommitId commit) const;

 private:
  // Resumable blame replay for one path: the fold state after applying a
  // prefix of the path's commit log. Advancing one commit at a time yields
  // exactly the same attribution as a from-scratch replay — this is what
  // makes per-commit incremental blame O(commit delta) instead of O(history)
  // while staying byte-identical to Blame()/BlameAt().
  struct BlameReplayState {
    std::vector<LineOrigin> attribution;
    // Lines of the file at the replay point, split once per version. They
    // view commit storage, which never moves: commits_ is a deque that only
    // grows at the back, and a Commit is immutable once added.
    std::vector<std::string_view> lines;
    bool exists = false;
    size_t log_index = 0;  // next entry of the path's commit log to apply
  };

  // Advances `state` through every log entry of `path` with id <= up_to.
  // Starting from a default state this reproduces BlameAt(path, up_to);
  // the head cache keeps its states across commits and pays only for the
  // new entries.
  void AdvanceBlame(const std::string& path, CommitId up_to, BlameReplayState& state) const;

  std::vector<Author> authors_;
  std::deque<Commit> commits_;
  // Per path: ids of commits touching it (including deletions), oldest first.
  std::map<std::string, std::vector<CommitId>> file_log_;
  // Head-blame cache as resumable states, one slot per path of file_log_
  // (created by AddCommit, so Blame() never inserts); Blame() advances a
  // path's state to the current head on demand, so AddCommit never discards
  // earlier work.
  mutable std::map<std::string, BlameReplayState> blame_cache_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_VCS_REPOSITORY_H_
