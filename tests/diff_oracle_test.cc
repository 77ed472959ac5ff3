// Differential oracle for the band-trace Myers diff. The reference below is
// the textbook form that snapshots the whole V array at every step; the
// production DiffLines keeps only the band each backtracking step reads. Both
// must produce the same edit script — same tie-breaks, not merely the same
// length — and that script must be minimal (n + m - 2 * LCS edits, with the
// LCS from an O(NM) dynamic program).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/rng.h"
#include "src/vcs/diff.h"

namespace vc {
namespace {

// Full-trace Myers: identical forward pass, but trace[d] is a copy of the
// entire 2(N+M)+3-wide V array after step d.
std::vector<Edit> ReferenceDiff(const std::vector<std::string_view>& a,
                                const std::vector<std::string_view>& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int max_d = n + m;
  std::vector<std::vector<int>> trace;
  std::vector<int> v(2 * max_d + 3, 0);
  auto vk = [&](std::vector<int>& vec, int k) -> int& { return vec[k + max_d + 1]; };

  int final_d = -1;
  for (int d = 0; d <= max_d; ++d) {
    for (int k = -d; k <= d; k += 2) {
      int x;
      if (k == -d || (k != d && vk(v, k - 1) < vk(v, k + 1))) {
        x = vk(v, k + 1);
      } else {
        x = vk(v, k - 1) + 1;
      }
      int y = x - k;
      while (x < n && y < m && a[x] == b[y]) {
        ++x;
        ++y;
      }
      vk(v, k) = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
    trace.push_back(v);
    if (final_d >= 0) {
      break;
    }
  }

  std::vector<Edit> reversed;
  int x = n;
  int y = m;
  for (int d = final_d; d > 0; --d) {
    std::vector<int>& prev = trace[d - 1];
    int k = x - y;
    int prev_k;
    if (k == -d || (k != d && vk(prev, k - 1) < vk(prev, k + 1))) {
      prev_k = k + 1;
    } else {
      prev_k = k - 1;
    }
    int prev_x = vk(prev, prev_k);
    int prev_y = prev_x - prev_k;
    while (x > prev_x && y > prev_y) {
      reversed.push_back({EditOp::kKeep, x - 1, y - 1});
      --x;
      --y;
    }
    if (x == prev_x) {
      reversed.push_back({EditOp::kInsert, -1, y - 1});
      --y;
    } else {
      reversed.push_back({EditOp::kDelete, x - 1, -1});
      --x;
    }
  }
  while (x > 0 && y > 0) {
    reversed.push_back({EditOp::kKeep, x - 1, y - 1});
    --x;
    --y;
  }
  while (x > 0) {
    reversed.push_back({EditOp::kDelete, x - 1, -1});
    --x;
  }
  while (y > 0) {
    reversed.push_back({EditOp::kInsert, -1, y - 1});
    --y;
  }
  return {reversed.rbegin(), reversed.rend()};
}

int LcsLength(const std::vector<std::string_view>& a, const std::vector<std::string_view>& b) {
  std::vector<std::vector<int>> dp(a.size() + 1, std::vector<int>(b.size() + 1, 0));
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = a[i - 1] == b[j - 1] ? dp[i - 1][j - 1] + 1
                                       : std::max(dp[i - 1][j], dp[i][j - 1]);
    }
  }
  return dp[a.size()][b.size()];
}

std::string Render(const std::vector<Edit>& edits) {
  std::string out;
  for (const Edit& e : edits) {
    out += e.op == EditOp::kKeep ? "=" : e.op == EditOp::kDelete ? "-" : "+";
    out += std::to_string(e.old_index) + "/" + std::to_string(e.new_index) + " ";
  }
  return out;
}

std::string Join(const std::vector<std::string_view>& lines) {
  std::string out;
  for (std::string_view line : lines) {
    out += line;
  }
  return out;
}

// Symbols are single letters from a 2- or 3-letter alphabet, so most lines
// repeat and the greedy choice between equal-length paths is exercised.
std::vector<std::string_view> RandomLines(Rng& rng, int max_len, int alphabet) {
  static const std::string_view kSymbols[] = {"a", "b", "c"};
  std::vector<std::string_view> lines(rng.NextBelow(static_cast<uint64_t>(max_len) + 1));
  for (std::string_view& line : lines) {
    line = kSymbols[rng.NextBelow(static_cast<uint64_t>(alphabet))];
  }
  return lines;
}

TEST(DiffOracle, BandTraceMatchesFullTraceAndIsMinimal) {
  Rng rng(20240611);
  int empty_sides = 0;
  for (int iter = 0; iter < 12000; ++iter) {
    const int alphabet = 2 + static_cast<int>(rng.NextBelow(2));
    const int max_len = iter % 10 == 0 ? 3 : 14;
    std::vector<std::string_view> a = RandomLines(rng, max_len, alphabet);
    std::vector<std::string_view> b = RandomLines(rng, max_len, alphabet);
    empty_sides += a.empty() || b.empty();

    std::vector<Edit> got = DiffLines(a, b);
    std::vector<Edit> want = ReferenceDiff(a, b);
    ASSERT_EQ(Render(got), Render(want)) << "a=" << Join(a) << " b=" << Join(b);

    int changes = 0;
    for (const Edit& e : got) {
      changes += e.op != EditOp::kKeep;
    }
    ASSERT_EQ(changes, static_cast<int>(a.size() + b.size()) - 2 * LcsLength(a, b))
        << "a=" << Join(a) << " b=" << Join(b);
  }
  EXPECT_GT(empty_sides, 100);  // both-empty and one-empty pairs were covered
}

TEST(DiffOracle, LargeFileSmallEditMatchesReference) {
  // The shape blame replays most: a long file with a handful of scattered
  // edits. Lines are mostly distinct, with a few duplicates near the edits.
  std::vector<std::string> old_text;
  for (int i = 0; i < 3000; ++i) {
    old_text.push_back(i % 97 == 0 ? "  return 0;" : "line " + std::to_string(i));
  }
  std::vector<std::string> new_text = old_text;
  new_text.insert(new_text.begin() + 10, "  return 0;");
  new_text.erase(new_text.begin() + 1500);
  new_text[2200] = "changed";
  new_text.push_back("tail");
  std::vector<std::string_view> a(old_text.begin(), old_text.end());
  std::vector<std::string_view> b(new_text.begin(), new_text.end());
  std::vector<Edit> got = DiffLines(a, b);
  EXPECT_EQ(Render(got), Render(ReferenceDiff(a, b)));
  std::vector<std::string> rebuilt = ApplyEdits(a, b, got);
  EXPECT_EQ(rebuilt, new_text);
}

}  // namespace
}  // namespace vc
