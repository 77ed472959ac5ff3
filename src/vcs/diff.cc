#include "src/vcs/diff.h"

namespace vc {

std::vector<std::string_view> SplitLines(std::string_view content) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < content.size()) {
    size_t pos = content.find('\n', start);
    if (pos == std::string_view::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, pos - start));
    start = pos + 1;
  }
  return lines;
}

std::vector<Edit> DiffLines(const std::vector<std::string_view>& a,
                            const std::vector<std::string_view>& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int max_d = n + m;

  // Myers' greedy algorithm. `v[k]` holds the furthest x on diagonal k. One
  // padding slot on each side keeps the k±1 reads in bounds at the extreme
  // diagonals (notably k = -d = max_d = 0 when both inputs are empty).
  //
  // Backtracking step d reads step d-1's v only on diagonals [-d, d], so the
  // trace keeps just the band [-d-1, d+1] of each step — O(D^2) ints instead
  // of O(D * (N + M)), which is what matters for small edits to large files.
  // Step d's band starts at offset d^2 + 2d (the sum of the 2j+3 widths of
  // steps j < d).
  std::vector<int> trace;
  std::vector<int> v(2 * max_d + 3, 0);
  auto vk = [&](int k) -> int& { return v[k + max_d + 1]; };
  auto band_at = [&](int d, int k) {
    return trace[static_cast<size_t>(d) * d + static_cast<size_t>(3 * d + k + 1)];
  };

  int final_d = -1;
  for (int d = 0; d <= max_d; ++d) {
    for (int k = -d; k <= d; k += 2) {
      int x;
      if (k == -d || (k != d && vk(k - 1) < vk(k + 1))) {
        x = vk(k + 1);  // move down (insert from b)
      } else {
        x = vk(k - 1) + 1;  // move right (delete from a)
      }
      int y = x - k;
      while (x < n && y < m && a[x] == b[y]) {
        ++x;
        ++y;
      }
      vk(k) = x;
      if (x >= n && y >= m) {
        final_d = d;
        break;
      }
    }
    // In bounds: |k| <= d + 1 <= max_d + 1 is exactly what the padding covers.
    trace.insert(trace.end(), &vk(-d - 1), &vk(d + 1) + 1);
    if (final_d >= 0) {
      break;
    }
  }

  // Backtrack from (n, m).
  std::vector<Edit> reversed;
  int x = n;
  int y = m;
  for (int d = final_d; d > 0; --d) {
    int k = x - y;
    int prev_k;
    if (k == -d || (k != d && band_at(d - 1, k - 1) < band_at(d - 1, k + 1))) {
      prev_k = k + 1;
    } else {
      prev_k = k - 1;
    }
    int prev_x = band_at(d - 1, prev_k);
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

std::vector<std::string> ApplyEdits(const std::vector<std::string_view>& a,
                                    const std::vector<std::string_view>& b,
                                    const std::vector<Edit>& edits) {
  std::vector<std::string> out;
  for (const Edit& edit : edits) {
    switch (edit.op) {
      case EditOp::kKeep:
        out.emplace_back(a[edit.old_index]);
        break;
      case EditOp::kInsert:
        out.emplace_back(b[edit.new_index]);
        break;
      case EditOp::kDelete:
        break;
    }
  }
  return out;
}

}  // namespace vc
