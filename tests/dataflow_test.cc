// Liveness and DefineSet analysis tests, including loop fix points, struct
// copy semantics, and the address-taken rule.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/ir/ir_builder.h"
#include "src/parser/parser.h"
#include "src/support/rng.h"

namespace vc {
namespace {

struct Analyzed {
  SourceManager sm;
  DiagnosticEngine diags;
  TranslationUnit unit;
  std::unique_ptr<IrModule> module;

  const IrFunction& Fn(const std::string& name) const {
    const IrFunction* func = module->FindFunction(name);
    EXPECT_NE(func, nullptr);
    return *func;
  }
};

std::unique_ptr<Analyzed> Analyze(const std::string& code) {
  auto a = std::make_unique<Analyzed>();
  a->unit = ParseString(a->sm, "test.c", code, a->diags);
  EXPECT_FALSE(a->diags.HasErrors()) << a->diags.Render(a->sm);
  a->module = LowerUnit(a->unit);
  return a;
}

SlotId SlotNamed(const IrFunction& func, const std::string& name) {
  for (SlotId i = 0; i < func.slots.size(); ++i) {
    if (func.slots[i].name == name) {
      return i;
    }
  }
  return kInvalidSlot;
}

TEST(Liveness, ParamLiveWhenUsed) {
  auto a = Analyze("int f(int a, int b) { return a; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(SlotLayout(func));
  EXPECT_TRUE(live.live_in[0].Contains(SlotNamed(func, "a")));
  EXPECT_FALSE(live.live_in[0].Contains(SlotNamed(func, "b")));
}

TEST(Liveness, OverwrittenParamNotLiveAtEntry) {
  auto a = Analyze("int f(int a) { a = 5; return a; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(SlotLayout(func));
  EXPECT_FALSE(live.live_in[0].Contains(SlotNamed(func, "a")));
}

TEST(Liveness, UseOnOneBranchKeepsLive) {
  auto a = Analyze("int f(int a, int c) { if (c) { return a; } return 0; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(SlotLayout(func));
  EXPECT_TRUE(live.live_in[0].Contains(SlotNamed(func, "a")));
}

TEST(Liveness, LoopCarriedUseReachesFixPoint) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int acc = 0;\n"
      "  while (n > 0) {\n"
      "    acc = acc + n;\n"
      "    n = n - 1;\n"
      "  }\n"
      "  return acc;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(SlotLayout(func));
  EXPECT_GE(live.iterations, 2);  // the back edge needs a second pass
  // `acc = acc + n` inside the loop is used (by itself next iteration and by
  // the return): the store must see acc live in the loop body's out state.
  SlotId acc = SlotNamed(func, "acc");
  bool acc_live_somewhere_in_loop = false;
  for (const auto& block : func.blocks) {
    for (BlockId succ : block->succs) {
      if (succ < block->id) {  // back edge source: loop latch
        acc_live_somewhere_in_loop = live.live_out[block->id].Contains(acc);
      }
    }
  }
  EXPECT_TRUE(acc_live_somewhere_in_loop);
}

TEST(Liveness, StructWholeCopyUsesFields) {
  auto a = Analyze(
      "struct s { int x; int y; };\n"
      "int use_s(struct s v);\n"
      "int f(int a) {\n"
      "  struct s v;\n"
      "  v.x = a;\n"
      "  v.y = a + 1;\n"
      "  return use_s(v);\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  LivenessResult live = ComputeLiveness(layout);
  // No field store is dead: the whole-struct load at the call uses them.
  for (const auto& block : func.blocks) {
    SlotSet set = live.live_out[block->id];
    for (size_t i = block->insts.size(); i-- > 0;) {
      const Instruction& inst = block->insts[i];
      if (inst.op == Opcode::kStore) {
        EXPECT_TRUE(set.Contains(inst.slot))
            << "field store to " << func.slots[inst.slot].name << " appears dead";
      }
      ApplyLivenessTransfer(layout, inst, set);
    }
  }
}

TEST(Liveness, AddressTakenCollected) {
  auto a = Analyze("int g_sink;\nvoid g(int *p);\nvoid f(void) { int x = 1; int y = 2; g(&x); g_sink = y; }");
  const IrFunction& func = a->Fn("f");
  LivenessResult live = ComputeLiveness(SlotLayout(func));
  EXPECT_TRUE(live.address_taken.Contains(SlotNamed(func, "x")));
  EXPECT_FALSE(live.address_taken.Contains(SlotNamed(func, "y")));
}

TEST(Liveness, AddressTakenStructEscapesFields) {
  auto a = Analyze(
      "struct s { int x; int y; };\n"
      "void g(struct s *p);\n"
      "void f(int a) { struct s v; v.x = a; g(&v); }");
  const IrFunction& func = a->Fn("f");
  SlotSet taken = ComputeAddressTaken(SlotLayout(func));
  EXPECT_TRUE(taken.Contains(SlotNamed(func, "v")));
  EXPECT_TRUE(taken.Contains(SlotNamed(func, "v#0")));
}

TEST(Liveness, FixPointIdempotent) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    if (i > 2) { s = s + i; } else { s = s - 1; }\n"
      "  }\n"
      "  return s;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  LivenessResult first = ComputeLiveness(SlotLayout(func));
  LivenessResult second = ComputeLiveness(SlotLayout(func));
  for (size_t i = 0; i < func.blocks.size(); ++i) {
    EXPECT_TRUE(first.live_in[i] == second.live_in[i]);
    EXPECT_TRUE(first.live_out[i] == second.live_out[i]);
  }
}

// --- SlotSet ------------------------------------------------------------------

TEST(SlotSet, BasicOperations) {
  SlotSet set(4);
  EXPECT_FALSE(set.Contains(2));
  set.Add(2);
  EXPECT_TRUE(set.Contains(2));
  set.Remove(2);
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.Count(), 0);
}

TEST(SlotSet, UnionReportsChange) {
  SlotSet a(4);
  SlotSet b(4);
  b.Add(1);
  EXPECT_TRUE(a.UnionWith(b));
  EXPECT_FALSE(a.UnionWith(b));  // second union is a no-op
  EXPECT_TRUE(a.Contains(1));
}

TEST(SlotSet, EqualityIgnoresTrailingZeros) {
  SlotSet a(2);
  SlotSet b(8);
  a.Add(1);
  b.Add(1);
  EXPECT_TRUE(a == b);
  b.Add(7);
  EXPECT_FALSE(a == b);
}

TEST(SlotSet, GrowsOnDemand) {
  SlotSet set;
  set.Add(100);
  EXPECT_TRUE(set.Contains(100));
  EXPECT_FALSE(set.Contains(99));
}

TEST(SlotSet, IntersectAndRangeRemoval) {
  SlotSet a;
  SlotSet b;
  for (int id : {3, 63, 64, 130}) {
    a.Add(id);
  }
  b.Add(63);
  b.Add(130);
  EXPECT_TRUE(a.IntersectWith(b));
  EXPECT_FALSE(a.IntersectWith(b));
  EXPECT_TRUE(a == b);
  a.RemoveRange(60, 131);
  EXPECT_EQ(a.Count(), 0);
  EXPECT_TRUE(a == SlotSet());
}

// Every operation against a std::set<int> reference, over capacities and ids
// from 0 to 200, so words, spills and ranges cross the 64 and 128 boundaries.
TEST(SlotSet, MatchesReferenceSetAcrossWordBoundaries) {
  Rng rng(64);
  auto ids = [](const SlotSet& set) {
    std::set<int> out;
    set.ForEach([&](int id) { out.insert(id); });
    return out;
  };
  for (int round = 0; round < 300; ++round) {
    const int n = static_cast<int>(rng.NextInRange(0, 200));
    SlotSet sets[2] = {SlotSet(static_cast<int>(rng.NextInRange(0, 200))),
                       SlotSet(static_cast<int>(rng.NextInRange(0, 200)))};
    std::set<int> refs[2];
    for (int step = 0; step < 60; ++step) {
      const int k = static_cast<int>(rng.NextBelow(2));
      SlotSet& set = sets[k];
      std::set<int>& ref = refs[k];
      const int id = n == 0 ? 0 : static_cast<int>(rng.NextBelow(n));
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:
          set.Add(id);
          ref.insert(id);
          break;
        case 2:
          set.Remove(id);
          ref.erase(id);
          break;
        case 3: {
          const int end = id + static_cast<int>(rng.NextInRange(0, 130));
          set.RemoveRange(id, end);
          ref.erase(ref.lower_bound(id), ref.lower_bound(end));
          break;
        }
        case 4: {
          const std::set<int> before = ref;
          ref.insert(refs[1 - k].begin(), refs[1 - k].end());
          EXPECT_EQ(set.UnionWith(sets[1 - k]), ref != before);
          break;
        }
        case 5: {
          std::set<int> both;
          for (int x : ref) {
            if (refs[1 - k].count(x) > 0) {
              both.insert(x);
            }
          }
          EXPECT_EQ(set.IntersectWith(sets[1 - k]), both != ref);
          ref = both;
          break;
        }
      }
      ASSERT_EQ(ids(set), ref) << "round " << round << " step " << step;
      EXPECT_EQ(set.Count(), static_cast<int>(ref.size()));
      EXPECT_EQ(set.Contains(id), ref.count(id) > 0);
      EXPECT_FALSE(set.Contains(-1));
      EXPECT_FALSE(set.Contains(n + 200));
      EXPECT_EQ(sets[0] == sets[1], refs[0] == refs[1]);
      const int begin = static_cast<int>(rng.NextInRange(0, 200));
      const int end = begin + static_cast<int>(rng.NextInRange(0, 100));
      std::vector<int> in_range;
      set.ForEachInRange(begin, end, [&](int x) { in_range.push_back(x); });
      EXPECT_EQ(in_range, std::vector<int>(ref.lower_bound(begin), ref.lower_bound(end)));
    }
    sets[0].Clear();
    EXPECT_EQ(sets[0].Count(), 0);
    EXPECT_TRUE(sets[0] == SlotSet());
  }
}

// --- SlotLayout -------------------------------------------------------------------

TEST(SlotLayout, StoreIdsAreContiguousPerSlotAndSortedByLoc) {
  auto a = Analyze(
      "struct pair { int a; int b; };\n"
      "int f(int m, int c) {\n"
      "  struct pair p;\n"
      "  int v = m;\n"
      "  int w = 0;\n"
      "  if (c) { v = 2; } else { w = 3; v = 4; }\n"
      "  v = 5; v = 5;\n"
      "  p.a = v;\n"
      "  return v + w + p.a;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  std::set<std::pair<SlotId, SourceLoc>> distinct;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op != Opcode::kStore) {
        continue;
      }
      distinct.insert({inst.slot, inst.loc});
      const StoreRange range = layout.Stores(inst.slot);
      const StoreId id = layout.StoreOf(inst);
      EXPECT_GE(id, range.begin);
      EXPECT_LT(id, range.end);
      EXPECT_EQ(layout.StoreLoc(id), inst.loc);
    }
  }
  EXPECT_EQ(layout.num_stores(), static_cast<int>(distinct.size()));
  StoreId next = 0;
  for (SlotId s = 0; s < layout.num_slots(); ++s) {
    const StoreRange range = layout.Stores(s);
    EXPECT_EQ(range.begin, next);
    for (StoreId id = range.begin + 1; id < range.end; ++id) {
      EXPECT_TRUE(layout.StoreLoc(id - 1) < layout.StoreLoc(id));
    }
    next = range.end;
  }
  EXPECT_EQ(next, layout.num_stores());

  const SlotId p = SlotNamed(func, "p");
  ASSERT_NE(p, kInvalidSlot);
  const auto fields = layout.FieldSlots(p);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], SlotNamed(func, "p#0"));
  EXPECT_EQ(fields[1], SlotNamed(func, "p#1"));
  EXPECT_TRUE(layout.FieldSlots(SlotNamed(func, "v")).empty());
  EXPECT_TRUE(layout.FieldSlots(fields[0]).empty());
}

// --- DefineSets ------------------------------------------------------------------

TEST(DefineSets, RecordsNearestOverwriter) {
  auto a = Analyze(
      "int g(int);\n"
      "int f(int m) {\n"
      "  int ret = g(m);\n"   // line 3: overwritten below
      "  ret = g(m + 1);\n"   // line 4
      "  return ret;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  DefineSetResult defs = ComputeDefineSets(layout);
  SlotId ret = SlotNamed(func, "ret");
  // Replay the entry block: before line 3's store, the define set must hold
  // line 4's store.
  const BasicBlock& entry = *func.blocks[0];
  DefineMap map = defs.out[0];
  std::optional<std::vector<SourceLoc>> found;
  for (size_t i = entry.insts.size(); i-- > 0;) {
    const Instruction& inst = entry.insts[i];
    if (inst.op == Opcode::kStore && inst.slot == ret && inst.loc.line == 3) {
      found = layout.StoreLocs(map, ret);
      break;
    }
    ApplyDefineTransfer(layout, inst, map);
  }
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].line, 4);
}

TEST(DefineSets, BranchesUnionOverwriters) {
  auto a = Analyze(
      "int f(int m, int c) {\n"
      "  int v = m;\n"          // line 2
      "  if (c) {\n"
      "    v = 1;\n"            // line 4
      "  } else {\n"
      "    v = 2;\n"            // line 6
      "  }\n"
      "  return v;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  DefineSetResult defs = ComputeDefineSets(layout);
  SlotId v = SlotNamed(func, "v");
  // At the entry block's in-state... the define set after line 2's store is
  // what we want: union of both branch stores.
  const DefineMap& entry_out = defs.out[0];
  const std::vector<SourceLoc> overwriters = layout.StoreLocs(entry_out, v);
  ASSERT_FALSE(overwriters.empty());
  ASSERT_EQ(overwriters.size(), 2u);
  EXPECT_EQ(overwriters[0].line, 4);
  EXPECT_EQ(overwriters[1].line, 6);
}

TEST(DefineSets, NoOverwriterForFinalStore) {
  auto a = Analyze("int f(int m) { int v = m; return v; }");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  DefineSetResult defs = ComputeDefineSets(layout);
  EXPECT_TRUE(layout.StoreLocs(defs.out[0], SlotNamed(func, "v")).empty());
}

TEST(DefineSets, LoopOverwriterSeen) {
  auto a = Analyze(
      "int f(int n) {\n"
      "  int v = 0;\n"          // line 2: overwritten by line 4 in the loop
      "  while (n > 0) {\n"
      "    v = n;\n"            // line 4
      "    n = n - 1;\n"
      "  }\n"
      "  return v;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  DefineSetResult defs = ComputeDefineSets(layout);
  const std::vector<SourceLoc> overwriters = layout.StoreLocs(defs.out[0], SlotNamed(func, "v"));
  ASSERT_FALSE(overwriters.empty());
  EXPECT_EQ(overwriters[0].line, 4);
}

TEST(DefineMap, UnionDeduplicates) {
  auto a = Analyze(
      "int f(int m) {\n"
      "  int v = m;\n"  // line 2
      "  v = m + 1;\n"  // line 3
      "  return v;\n"
      "}");
  const IrFunction& func = a->Fn("f");
  const SlotLayout layout(func);
  const SlotId v = SlotNamed(func, "v");
  std::vector<const Instruction*> stores;
  for (const Instruction& inst : func.blocks[0]->insts) {
    if (inst.op == Opcode::kStore && inst.slot == v) {
      stores.push_back(&inst);
    }
  }
  ASSERT_EQ(stores.size(), 2u);
  DefineMap x;
  DefineMap y;
  ApplyDefineTransfer(layout, *stores[0], x);
  ApplyDefineTransfer(layout, *stores[0], y);
  EXPECT_FALSE(x.UnionWith(y));
  ApplyDefineTransfer(layout, *stores[1], y);
  EXPECT_TRUE(x.UnionWith(y));
  const std::vector<SourceLoc> locs = layout.StoreLocs(x, v);
  ASSERT_EQ(locs.size(), 2u);
  EXPECT_EQ(locs[0].line, 2);
  EXPECT_EQ(locs[1].line, 3);
}

}  // namespace
}  // namespace vc
