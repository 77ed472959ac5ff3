// Version-control substrate tests: Myers diff, repository storage, blame
// replay, per-file logs, changed-line extraction.

#include <gtest/gtest.h>

#include "src/vcs/diff.h"
#include "src/vcs/repository.h"

namespace vc {
namespace {

// --- SplitLines -------------------------------------------------------------

TEST(Diff, SplitLines) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_TRUE(SplitLines("").empty());
  EXPECT_EQ(SplitLines("no-newline").size(), 1u);
}

// --- Myers diff ----------------------------------------------------------------

std::vector<std::string_view> Views(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

TEST(Diff, IdenticalInputsAllKeep) {
  std::vector<std::string> a = {"x", "y", "z"};
  auto edits = DiffLines(Views(a), Views(a));
  ASSERT_EQ(edits.size(), 3u);
  for (const Edit& edit : edits) {
    EXPECT_EQ(edit.op, EditOp::kKeep);
  }
}

TEST(Diff, PureInsertion) {
  std::vector<std::string> a = {"x", "z"};
  std::vector<std::string> b = {"x", "y", "z"};
  auto edits = DiffLines(Views(a), Views(b));
  int inserts = 0;
  for (const Edit& edit : edits) {
    inserts += edit.op == EditOp::kInsert ? 1 : 0;
  }
  EXPECT_EQ(inserts, 1);
}

TEST(Diff, PureDeletion) {
  std::vector<std::string> a = {"x", "y", "z"};
  std::vector<std::string> b = {"x", "z"};
  auto edits = DiffLines(Views(a), Views(b));
  int deletes = 0;
  for (const Edit& edit : edits) {
    deletes += edit.op == EditOp::kDelete ? 1 : 0;
  }
  EXPECT_EQ(deletes, 1);
}

TEST(Diff, EmptySides) {
  std::vector<std::string> empty;
  std::vector<std::string> b = {"a", "b"};
  auto edits = DiffLines(Views(empty), Views(b));
  ASSERT_EQ(edits.size(), 2u);
  EXPECT_EQ(edits[0].op, EditOp::kInsert);
  edits = DiffLines(Views(b), Views(empty));
  ASSERT_EQ(edits.size(), 2u);
  EXPECT_EQ(edits[0].op, EditOp::kDelete);
  EXPECT_TRUE(DiffLines({}, {}).empty());
}

TEST(Diff, RoundTripReconstructsTarget) {
  std::vector<std::string> a = {"one", "two", "three", "four", "five"};
  std::vector<std::string> b = {"zero", "two", "three2", "four", "five", "six"};
  auto edits = DiffLines(Views(a), Views(b));
  EXPECT_EQ(ApplyEdits(Views(a), Views(b), edits), b);
}

TEST(Diff, ScriptIndicesAreOrderedAndComplete) {
  std::vector<std::string> a = {"k", "k", "a", "k"};
  std::vector<std::string> b = {"k", "b", "k", "k", "c"};
  auto edits = DiffLines(Views(a), Views(b));
  int next_old = 0;
  int next_new = 0;
  for (const Edit& edit : edits) {
    switch (edit.op) {
      case EditOp::kKeep:
        EXPECT_EQ(edit.old_index, next_old++);
        EXPECT_EQ(edit.new_index, next_new++);
        EXPECT_EQ(a[edit.old_index], b[edit.new_index]);
        break;
      case EditOp::kDelete:
        EXPECT_EQ(edit.old_index, next_old++);
        break;
      case EditOp::kInsert:
        EXPECT_EQ(edit.new_index, next_new++);
        break;
    }
  }
  EXPECT_EQ(next_old, static_cast<int>(a.size()));
  EXPECT_EQ(next_new, static_cast<int>(b.size()));
}

// --- Repository -------------------------------------------------------------------

TEST(Repository, AuthorsInterned) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  EXPECT_NE(alice, bob);
  EXPECT_EQ(repo.GetAuthor(alice).name, "alice");
  EXPECT_EQ(repo.FindAuthor("bob"), bob);
  EXPECT_EQ(repo.FindAuthor("carol"), kInvalidAuthor);
}

TEST(Repository, FileAtWalksHistory) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 100, "v1", {{"f.c", "one\n"}});
  CommitId c2 = repo.AddCommit(a, 200, "v2", {{"f.c", "two\n"}});
  EXPECT_EQ(repo.FileAt("f.c", c1).value(), "one\n");
  EXPECT_EQ(repo.FileAt("f.c", c2).value(), "two\n");
  EXPECT_EQ(repo.Head("f.c").value(), "two\n");
  EXPECT_FALSE(repo.FileAt("g.c", c2).has_value());
}

TEST(Repository, DeletionRemovesFromHead) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 100, "add", {{"f.c", "x\n"}});
  repo.AddCommit(a, 200, "rm", {}, {"f.c"});
  EXPECT_FALSE(repo.Head("f.c").has_value());
  EXPECT_TRUE(repo.ListFiles().empty());
}

TEST(Repository, LogTracksTouchesInOrder) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 1, "1", {{"f.c", "1\n"}});
  repo.AddCommit(a, 2, "other", {{"g.c", "x\n"}});
  CommitId c3 = repo.AddCommit(a, 3, "2", {{"f.c", "2\n"}});
  EXPECT_EQ(repo.LogOf("f.c"), (std::vector<CommitId>{c1, c3}));
}

TEST(Repository, BlameAttributesInsertedLines) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  CommitId c1 = repo.AddCommit(alice, 1, "create", {{"f.c", "a1\na2\na3\n"}});
  CommitId c2 = repo.AddCommit(bob, 2, "insert", {{"f.c", "a1\nb1\na2\na3\n"}});
  const auto& blame = repo.Blame("f.c");
  ASSERT_EQ(blame.size(), 4u);
  EXPECT_EQ(blame[0].author, alice);
  EXPECT_EQ(blame[0].commit, c1);
  EXPECT_EQ(blame[1].author, bob);
  EXPECT_EQ(blame[1].commit, c2);
  EXPECT_EQ(blame[2].author, alice);
  EXPECT_EQ(blame[3].author, alice);
}

TEST(Repository, BlameModifiedLineReattributed) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 1, "create", {{"f.c", "keep\nchange-me\nkeep2\n"}});
  repo.AddCommit(bob, 2, "edit", {{"f.c", "keep\nchanged\nkeep2\n"}});
  const auto& blame = repo.Blame("f.c");
  EXPECT_EQ(blame[0].author, alice);
  EXPECT_EQ(blame[1].author, bob);
  EXPECT_EQ(blame[2].author, alice);
}

TEST(Repository, BlameAtHistoricalCommit) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  CommitId c1 = repo.AddCommit(alice, 1, "create", {{"f.c", "x\n"}});
  repo.AddCommit(bob, 2, "append", {{"f.c", "x\ny\n"}});
  auto historical = repo.BlameAt("f.c", c1);
  ASSERT_EQ(historical.size(), 1u);
  EXPECT_EQ(historical[0].author, alice);
  EXPECT_EQ(repo.Blame("f.c").size(), 2u);
}

TEST(Repository, BlameLineCountMatchesContent) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::string v1 = "l1\nl2\nl3\nl4\n";
  std::string v2 = "l1\nnew\nl3\nl4\nl5\n";  // l2 swapped, l5 appended
  repo.AddCommit(a, 1, "v1", {{"f.c", v1}});
  repo.AddCommit(b, 2, "v2", {{"f.c", v2}});
  EXPECT_EQ(repo.Blame("f.c").size(), SplitLines(v2).size());
}

TEST(Repository, BlameCacheInvalidatedByCommit) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "v1", {{"f.c", "x\n"}});
  EXPECT_EQ(repo.Blame("f.c").size(), 1u);
  repo.AddCommit(b, 2, "v2", {{"f.c", "x\ny\n"}});
  ASSERT_EQ(repo.Blame("f.c").size(), 2u);
  EXPECT_EQ(repo.Blame("f.c")[1].author, b);
}

TEST(Repository, RecreatedFileOwnedByRecreator) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "create", {{"f.c", "old\n"}});
  repo.AddCommit(a, 2, "delete", {}, {"f.c"});
  repo.AddCommit(b, 3, "recreate", {{"f.c", "old\n"}});
  const auto& blame = repo.Blame("f.c");
  ASSERT_EQ(blame.size(), 1u);
  EXPECT_EQ(blame[0].author, b);
}

TEST(Repository, FindHeadViewsStoredContentWithoutCopying) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 1, "v1", {{"f.c", "one\n"}});
  repo.AddCommit(a, 2, "v2", {{"g.c", "g\n"}});
  const std::string* head = repo.FindHead("f.c");
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head, &repo.GetCommit(c1).files.at("f.c"));  // the commit's own bytes
  EXPECT_EQ(repo.FindFileAt("f.c", c1), head);
  EXPECT_EQ(repo.FindFileAt("g.c", c1), nullptr);  // not yet created
  EXPECT_EQ(repo.FindHead("missing.c"), nullptr);
  repo.AddCommit(a, 3, "rm", {}, {"f.c"});
  EXPECT_EQ(repo.FindHead("f.c"), nullptr);
  EXPECT_EQ(repo.ListFiles(), std::vector<std::string>{"g.c"});
  EXPECT_EQ(Repository().FindHead("f.c"), nullptr);
}

TEST(Repository, HeadBlameAdvancesAcrossManyCommits) {
  // The cached replay state views commit storage while commits keep landing;
  // after every commit it must equal a from-scratch replay.
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  std::vector<std::string> lines = {"start"};
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2 && lines.size() > 1) {
      lines.erase(lines.begin() + (i % lines.size()));
    } else {
      lines.insert(lines.begin() + (i % (lines.size() + 1)), "line " + std::to_string(i % 7));
    }
    std::string content;
    for (const std::string& line : lines) {
      content += line + "\n";
    }
    repo.AddCommit(i % 2 == 0 ? a : b, i, "c", {{"f.c", content}, {"other.c", content}});
    if (i % 17 == 0 || i == 299) {
      const std::vector<LineOrigin>& head = repo.Blame("f.c");
      std::vector<LineOrigin> replay = repo.BlameAt("f.c", repo.NumCommits() - 1);
      ASSERT_EQ(head.size(), replay.size()) << "commit " << i;
      for (size_t k = 0; k < head.size(); ++k) {
        EXPECT_EQ(head[k].commit, replay[k].commit) << "commit " << i << " line " << k;
        EXPECT_EQ(head[k].author, replay[k].author);
      }
    }
  }
}

TEST(Repository, CopyStartsColdAndBlamesTheSame) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  AuthorId b = repo.AddAuthor("b");
  repo.AddCommit(a, 1, "v1", {{"f.c", "x\ny\n"}});
  repo.AddCommit(b, 2, "v2", {{"f.c", "x\nz\ny\n"}});
  const std::vector<LineOrigin> original = repo.Blame("f.c");  // warm the source
  Repository copy = repo;
  {
    Repository gone = repo;
    copy = gone;  // assignment from a copy that dies before copy is used
  }
  const std::vector<LineOrigin>& copied = copy.Blame("f.c");
  ASSERT_EQ(copied.size(), original.size());
  for (size_t k = 0; k < copied.size(); ++k) {
    EXPECT_EQ(copied[k].commit, original[k].commit);
  }
  // The copy keeps advancing on its own history.
  copy.AddCommit(a, 3, "v3", {{"f.c", "w\nx\nz\ny\n"}});
  EXPECT_EQ(copy.Blame("f.c").size(), 4u);
  EXPECT_EQ(copy.Blame("f.c")[0].author, a);
  EXPECT_EQ(repo.Blame("f.c").size(), 3u);
}

TEST(Repository, ChangedLinesForInsertions) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  repo.AddCommit(a, 1, "v1", {{"f.c", "a\nb\nc\n"}});
  CommitId c2 = repo.AddCommit(a, 2, "v2", {{"f.c", "a\nX\nb\nc\nY\n"}});
  EXPECT_EQ(repo.ChangedLines("f.c", c2), (std::vector<int>{2, 5}));
}

TEST(Repository, ChangedLinesForNewFile) {
  Repository repo;
  AuthorId a = repo.AddAuthor("a");
  CommitId c1 = repo.AddCommit(a, 1, "new", {{"f.c", "a\nb\n"}});
  EXPECT_EQ(repo.ChangedLines("f.c", c1), (std::vector<int>{1, 2}));
  EXPECT_TRUE(repo.ChangedLines("untouched.c", c1).empty());
}

}  // namespace
}  // namespace vc
