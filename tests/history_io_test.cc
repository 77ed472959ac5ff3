// Tests for the vchist history serialization: parsing, error reporting, and
// save/load round-trips (including through the full pipeline).

#include <gtest/gtest.h>

#include "src/core/analysis.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/vcs/history_io.h"

namespace vc {
namespace {

TEST(HistoryIo, ParsesMinimalHistory) {
  std::string text =
      "# a comment\n"
      "commit\n"
      "author alice\n"
      "time 1000\n"
      "message first\n"
      "write a.c\n"
      "<<<\n"
      "int f(int x) {\n"
      "  return x;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumCommits(), 1);
  EXPECT_EQ(repo->NumAuthors(), 1);
  EXPECT_EQ(repo->Head("a.c").value(), "int f(int x) {\n  return x;\n}\n");
  const Commit& commit = repo->GetCommit(0);
  EXPECT_EQ(commit.timestamp, 1000);
  EXPECT_EQ(commit.message, "first");
}

TEST(HistoryIo, AuthorsInternedAcrossCommits) {
  std::string text =
      "commit\nauthor dev\ntime 1\nmessage a\nwrite x.c\n<<<\n1\n>>>\nend\n"
      "commit\nauthor dev\ntime 2\nmessage b\nwrite x.c\n<<<\n1\n2\n>>>\nend\n"
      "commit\nauthor other\ntime 3\nmessage c\ndelete x.c\nend\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumAuthors(), 2);
  EXPECT_EQ(repo->NumCommits(), 3);
  EXPECT_FALSE(repo->Head("x.c").has_value());  // deleted
}

TEST(HistoryIo, ErrorsCarryLineNumbers) {
  std::string error;
  EXPECT_FALSE(LoadHistory("bogus\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\nno-marker\n", &error).has_value());
  EXPECT_NE(error.find("'<<<'"), std::string::npos);

  EXPECT_FALSE(
      LoadHistory("commit\nauthor a\nwrite f.c\n<<<\nnever closed\n", &error).has_value());
  EXPECT_NE(error.find("unterminated"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\nauthor a\ntime 1\nmessage m\n", &error).has_value());
  EXPECT_NE(error.find("missing 'end'"), std::string::npos);

  EXPECT_FALSE(LoadHistory("commit\ntime 1\nend\n", &error).has_value());
  EXPECT_NE(error.find("missing 'author'"), std::string::npos);
}

// --- Loader exactness ------------------------------------------------------
//
// The loader slices each content block straight out of the text, so these
// pin down exactly which bytes a block holds.

std::string LoadOrDie(std::string_view text, const std::string& path) {
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  EXPECT_TRUE(repo.has_value()) << error;
  if (!repo.has_value()) {
    return "<load failed>";
  }
  std::optional<std::string> head = repo->Head(path);
  return head.has_value() ? *head : "<absent>";
}

TEST(HistoryIo, SaveOfLoadIsExactForEveryPaperApp) {
  for (const ProjectProfile& profile : AllProfiles()) {
    GeneratedApp app = GenerateApp(profile);
    const std::string text = SaveHistory(app.repo);
    std::string error;
    std::optional<Repository> loaded = LoadHistory(text, &error);
    ASSERT_TRUE(loaded.has_value()) << profile.name << ": " << error;
    EXPECT_EQ(loaded->NumCommits(), app.repo.NumCommits()) << profile.name;
    EXPECT_TRUE(SaveHistory(*loaded) == text) << profile.name;
  }
}

TEST(HistoryIo, ClosingMarkerMayCarrySurroundingWhitespace) {
  EXPECT_EQ(LoadOrDie("commit\nauthor a\nwrite f.c\n<<<\nx\n \t>>>  \nend\n", "f.c"), "x\n");
}

TEST(HistoryIo, DirectiveWordsInsideContentAreContent) {
  const std::string content = "commit\nend\n<<<\n  end  \nauthor z\n# not a comment\n>>>x\n";
  const std::string text =
      "commit\nauthor a\ntime 5\nmessage m\nwrite f.c\n<<<\n" + content + ">>>\nend\n";
  EXPECT_EQ(LoadOrDie(text, "f.c"), content);
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->NumCommits(), 1);
  EXPECT_EQ(SaveHistory(*repo), text);
}

TEST(HistoryIo, CrlfContentIsKeptVerbatim) {
  const std::string content = "int a;\r\nint b;\r\n\r\n";
  const std::string text =
      "commit\nauthor a\ntime 1\nmessage m\nwrite f.c\n<<<\n" + content + ">>>\nend\n";
  EXPECT_EQ(LoadOrDie(text, "f.c"), content);
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(SaveHistory(*repo), text);
  // A history written with CRLF throughout still parses: directives and
  // markers are trimmed, content lines keep their carriage returns.
  EXPECT_EQ(LoadOrDie("commit\r\nauthor a\r\nwrite f.c\r\n<<<\r\nx\r\n>>>\r\nend\r\n", "f.c"),
            "x\r\n");
}

TEST(HistoryIo, EmptyWriteBlockCreatesEmptyFile) {
  const std::string text = "commit\nauthor a\ntime 1\nmessage m\nwrite f.c\n<<<\n>>>\nend\n";
  EXPECT_EQ(LoadOrDie(text, "f.c"), "");
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  EXPECT_EQ(repo->ListFiles(), std::vector<std::string>{"f.c"});
  EXPECT_EQ(SaveHistory(*repo), text);
}

TEST(HistoryIo, CommentsBetweenDirectivesAreSkipped) {
  const std::string text =
      "# leading comment\n\ncommit\n  # indented comment\nauthor a\n\n# between\n"
      "write f.c\n<<<\n# kept: inside content\n>>>\n# after block\nend\n# trailing\n";
  EXPECT_EQ(LoadOrDie(text, "f.c"), "# kept: inside content\n");
}

TEST(HistoryIo, UnterminatedBlockAtEofWithoutNewline) {
  std::string error;
  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\n<<<\nx\ny", &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("unterminated content block for 'f.c'"), std::string::npos) << error;
}

TEST(HistoryIo, LineNumbersCountContentLines) {
  // Errors after a content block still name the right line: the loader skips
  // blocks without a line table but must count every line it passes.
  std::string error;
  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\n<<<\n1\n2\n3\n>>>\nbogus\nend\n",
                           &error)
                   .has_value());
  EXPECT_NE(error.find("line 9: unknown directive 'bogus'"), std::string::npos) << error;
  EXPECT_FALSE(LoadHistory("commit\nauthor a\nwrite f.c\n<<<\n1\n>>>\nend\nnext\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 8: expected 'commit'"), std::string::npos) << error;
  EXPECT_FALSE(LoadHistory("commit\ntime 1\nwrite f.c\n<<<\n1\n>>>\nend\n", &error)
                   .has_value());
  EXPECT_NE(error.find("line 8: commit block missing 'author'"), std::string::npos) << error;
}

TEST(HistoryIo, EmptyInputIsEmptyRepo) {
  std::string error;
  std::optional<Repository> repo = LoadHistory("", &error);
  ASSERT_TRUE(repo.has_value());
  EXPECT_EQ(repo->NumCommits(), 0);
}

TEST(HistoryIo, SaveLoadRoundTrip) {
  Repository repo;
  AuthorId alice = repo.AddAuthor("alice");
  AuthorId bob = repo.AddAuthor("bob");
  repo.AddCommit(alice, 100, "create module", {{"a.c", "line1\nline2\n"}});
  repo.AddCommit(bob, 200, "edit and add", {{"a.c", "line1\nnew\n"}, {"b.c", "other\n"}});
  repo.AddCommit(alice, 300, "remove b", {}, {"b.c"});

  std::string error;
  std::optional<Repository> loaded = LoadHistory(SaveHistory(repo), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->NumCommits(), repo.NumCommits());
  EXPECT_EQ(loaded->Head("a.c"), repo.Head("a.c"));
  EXPECT_EQ(loaded->Head("b.c").has_value(), false);
  // Blame survives the round trip.
  const auto& blame = loaded->Blame("a.c");
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(loaded->GetAuthor(blame[0].author).name, "alice");
  EXPECT_EQ(loaded->GetAuthor(blame[1].author).name, "bob");
}

TEST(HistoryIo, PipelineOverLoadedHistoryFindsCrossScopeBug) {
  std::string text =
      "commit\n"
      "author alice\n"
      "time 1\n"
      "message add work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n"
      "commit\n"
      "author bob\n"
      "time 2\n"
      "message tweak work\n"
      "write w.c\n"
      "<<<\n"
      "int helper(int x) {\n"
      "  return x + 1;\n"
      "}\n"
      "int work(int x) {\n"
      "  int ret = helper(x);\n"
      "  ret = helper(x + 2);\n"
      "  return ret;\n"
      "}\n"
      ">>>\n"
      "end\n";
  std::string error;
  std::optional<Repository> repo = LoadHistory(text, &error);
  ASSERT_TRUE(repo.has_value()) << error;
  AnalysisReport report = Analysis().RunOnRepository(*repo);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].kind, CandidateKind::kOverwrittenDef);
  EXPECT_EQ(repo->GetAuthor(report.findings[0].responsible_author).name, "bob");
}

}  // namespace
}  // namespace vc
