// Inter-procedural authorship analysis (§4.2): classifies each detected
// unused definition as cross-scope or not by comparing line-level authorship
// (from the repository's blame) across the developer-interaction boundary:
//
//   1. unused return value  — call-site author vs the authors of every return
//      statement in the callee (library callees count as a different author);
//   2. unused/overwritten parameter — call-site authors vs the parameter's
//      author (or the author of the store that overwrites it in the callee);
//   3. overwritten definition — the definition's author vs the authors of the
//      nearest overwriting definitions on all successor paths (DefineSet).

#ifndef VALUECHECK_SRC_CORE_AUTHORSHIP_H_
#define VALUECHECK_SRC_CORE_AUTHORSHIP_H_

#include <vector>

#include "src/core/project.h"
#include "src/core/unused_def.h"
#include "src/vcs/repository.h"

namespace vc {

class AuthorshipAnalyzer {
 public:
  // `repo` may be null; every author is then unknown and nothing classifies
  // as cross-scope except library return values. When `at_commit` is given,
  // blame is evaluated at that commit instead of head (incremental analysis
  // sees the history as of the commit under analysis).
  //
  // Construction blames every project file up front, across `jobs` lanes of
  // the thread pool, into a per-file table; classification then only reads
  // it. Head blame lives in the repository's cache, so later stages that
  // call Repository::Blame (stale-code pruning) reuse it.
  AuthorshipAnalyzer(const Project& project, const Repository* repo,
                     CommitId at_commit = kInvalidCommit, int jobs = 1);

  // Author of the line containing `loc` per blame, or kInvalidAuthor.
  AuthorId AuthorOfLoc(const SourceLoc& loc) const;

  // Fills cross_scope / kind / def_author / responsible_author.
  void Classify(UnusedDefCandidate& cand) const;

  void ClassifyAll(std::vector<UnusedDefCandidate>& candidates) const {
    for (UnusedDefCandidate& cand : candidates) {
      Classify(cand);
    }
  }

 private:
  bool AllDifferent(AuthorId author, const std::vector<AuthorId>& others) const;

  // Cross-scope classification for non-unused-def checkers: the checker owns
  // the kind; authorship decides the boundary bit via the overwriter rule
  // (overwriter_locs) or, failing that, the callee rule (callee_name).
  void ClassifyGeneric(UnusedDefCandidate& cand) const;

  const Project& project_;
  // Per FileId: the file's blame, or null when there is no repository.
  std::vector<const std::vector<LineOrigin>*> blame_;
  // Owns the historical (at_commit) results that blame_ points into.
  std::vector<std::vector<LineOrigin>> historical_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_AUTHORSHIP_H_
