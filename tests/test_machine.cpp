// Tests for the topology model, including the paper's two testbeds.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <thread>

#include "topo/machine.hpp"

namespace piom::topo {
namespace {

TEST(Machine, BorderlineShape) {
  // Table I testbed: 4-socket dual-core, no shared L3.
  const Machine m = Machine::borderline();
  EXPECT_EQ(m.ncpus(), 8);
  EXPECT_EQ(m.root().level, Level::kMachine);
  // Levels: 1 machine + 4 chips + 8 cores = 13 nodes (no numa/cache).
  EXPECT_EQ(m.nnodes(), 13u);
  int chips = 0, cores = 0;
  for (const auto& n : m.nodes()) {
    if (n->level == Level::kChip) ++chips;
    if (n->level == Level::kCore) ++cores;
    EXPECT_NE(n->level, Level::kNuma);
    EXPECT_NE(n->level, Level::kCache);
  }
  EXPECT_EQ(chips, 4);
  EXPECT_EQ(cores, 8);
}

TEST(Machine, KwakShape) {
  // Table II / Fig 3 testbed: 4 NUMA nodes x quad-core chip with shared L3.
  const Machine m = Machine::kwak();
  EXPECT_EQ(m.ncpus(), 16);
  int numas = 0, chips = 0, caches = 0, cores = 0;
  for (const auto& n : m.nodes()) {
    switch (n->level) {
      case Level::kNuma: ++numas; break;
      case Level::kChip: ++chips; break;
      case Level::kCache: ++caches; break;
      case Level::kCore: ++cores; break;
      default: break;
    }
  }
  EXPECT_EQ(numas, 4);
  EXPECT_EQ(chips, 4);
  EXPECT_EQ(caches, 4);
  EXPECT_EQ(cores, 16);
  // Fig 3: NUMA node #1 covers cores 0-3, etc.
  const TopoNode& numa0 = *m.root().children[0];
  EXPECT_EQ(numa0.level, Level::kNuma);
  EXPECT_EQ(numa0.cpus, CpuSet::range(0, 4));
}

TEST(Machine, FlatShape) {
  const Machine m = Machine::flat(6);
  EXPECT_EQ(m.ncpus(), 6);
  EXPECT_EQ(m.nnodes(), 7u);
  EXPECT_EQ(m.root().children.size(), 6u);
}

TEST(Machine, RejectsBadShapes) {
  EXPECT_THROW(Machine::flat(0), std::invalid_argument);
  EXPECT_THROW(Machine::symmetric(0, 1, 1, false), std::invalid_argument);
  EXPECT_THROW(Machine::symmetric(1, 1, 0, true), std::invalid_argument);
  EXPECT_THROW(Machine::symmetric(64, 4, 4, false), std::invalid_argument);
}

TEST(Machine, CoreNodeLookup) {
  const Machine m = Machine::kwak();
  for (int c = 0; c < m.ncpus(); ++c) {
    const TopoNode& n = m.core_node(c);
    EXPECT_EQ(n.level, Level::kCore);
    EXPECT_EQ(n.cpus, CpuSet::single(c));
  }
  EXPECT_THROW(static_cast<void>(m.core_node(-1)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(m.core_node(16)), std::out_of_range);
}

TEST(Machine, NodeCoveringPicksSmallest) {
  const Machine m = Machine::kwak();
  // Single core -> per-core node.
  EXPECT_EQ(m.node_covering(CpuSet::single(5)).level, Level::kCore);
  // Cores 0-3 share the L3 -> cache node (deepest level containing them).
  const TopoNode& cache = m.node_covering(CpuSet::range(0, 4));
  EXPECT_EQ(cache.level, Level::kCache);
  // Cores 0-7 span two NUMA nodes -> machine.
  EXPECT_EQ(m.node_covering(CpuSet::range(0, 8)).level, Level::kMachine);
  // Two cores of the same chip -> cache level on kwak.
  EXPECT_EQ(m.node_covering(CpuSet::parse("4-5")).level, Level::kCache);
  // Two cores of different NUMA nodes -> machine.
  EXPECT_EQ(m.node_covering(CpuSet::parse("3,4")).level, Level::kMachine);
  // Empty set -> global queue (root).
  EXPECT_EQ(&m.node_covering(CpuSet{}), &m.root());
}

TEST(Machine, BorderlineNodeCovering) {
  const Machine m = Machine::borderline();
  EXPECT_EQ(m.node_covering(CpuSet::parse("0-1")).level, Level::kChip);
  EXPECT_EQ(m.node_covering(CpuSet::parse("1,2")).level, Level::kMachine);
}

TEST(Machine, PathToRootOrder) {
  const Machine m = Machine::kwak();
  const auto path = m.path_to_root(9);
  // core -> cache -> chip -> numa -> machine.
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path[0]->level, Level::kCore);
  EXPECT_EQ(path[1]->level, Level::kCache);
  EXPECT_EQ(path[2]->level, Level::kChip);
  EXPECT_EQ(path[3]->level, Level::kNuma);
  EXPECT_EQ(path[4]->level, Level::kMachine);
  for (const TopoNode* n : path) EXPECT_TRUE(n->cpus.test(9));
}

TEST(Machine, SiblingsSharingCache) {
  const Machine kwak = Machine::kwak();
  // On kwak, core 5's cache group is cores 4-7.
  EXPECT_EQ(kwak.siblings_sharing_cache(5), CpuSet::range(4, 8));
  const Machine bl = Machine::borderline();
  // On borderline there is no cache level: the chip group (pairs).
  EXPECT_EQ(bl.siblings_sharing_cache(3), CpuSet::range(2, 4));
}

TEST(Machine, DetectDoesNotCrash) {
  const Machine m = Machine::detect();
  EXPECT_GE(m.ncpus(), 1);
  for (int c = 0; c < m.ncpus(); ++c) {
    EXPECT_EQ(m.core_node(c).cpus, CpuSet::single(c));
  }
}

TEST(Machine, UsableCpusIsTheProcessMask) {
  const CpuSet usable = usable_cpus();
  ASSERT_FALSE(usable.empty());
  const int here = current_host_cpu();
  if (here >= 0) {
    EXPECT_TRUE(usable.test(here));
  }
  // A thread that pins itself narrows its own mask, not the process's.
  std::thread pinned([&] {
    if (!pin_current_thread(usable.first())) return;
    EXPECT_EQ(usable_cpus(), usable);
  });
  pinned.join();
}

TEST(Machine, ToStringMentionsEveryLevel) {
  const std::string s = Machine::kwak().to_string();
  EXPECT_NE(s.find("machine #0"), std::string::npos);
  EXPECT_NE(s.find("numa #2"), std::string::npos);
  EXPECT_NE(s.find("cache #3"), std::string::npos);
  EXPECT_NE(s.find("core #15"), std::string::npos);
}


TEST(MachineSpec, Presets) {
  EXPECT_EQ(Machine::from_spec("borderline").ncpus(), 8);
  EXPECT_EQ(Machine::from_spec("kwak").ncpus(), 16);
  EXPECT_GE(Machine::from_spec("host").ncpus(), 1);
}

TEST(MachineSpec, FlatForm) {
  const Machine m = Machine::from_spec("flat:6");
  EXPECT_EQ(m.ncpus(), 6);
  EXPECT_EQ(m.nnodes(), 7u);
}

TEST(MachineSpec, SymmetricForm) {
  const Machine m = Machine::from_spec("numa=2,chips=2,cores=3,l3");
  EXPECT_EQ(m.ncpus(), 12);
  int caches = 0;
  for (const auto& n : m.nodes()) {
    if (n->level == Level::kCache) ++caches;
  }
  EXPECT_EQ(caches, 4);
  // Without l3 there is no cache level.
  const Machine m2 = Machine::from_spec("numa=2,chips=2,cores=3");
  for (const auto& n : m2.nodes()) {
    EXPECT_NE(n->level, Level::kCache);
  }
}

TEST(MachineSpec, RejectsJunk) {
  EXPECT_THROW(static_cast<void>(Machine::from_spec("")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("flat:0")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("bogus=2")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("cores")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("cores=-1")), std::invalid_argument);
  // Malformed flat: counts — empty, non-numeric, negative.
  EXPECT_THROW(static_cast<void>(Machine::from_spec("flat:")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("flat:abc")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("flat:-4")), std::invalid_argument);
  // Malformed key=value lists — zero values, missing key, missing value,
  // empty items from stray commas, unparsable numbers.
  EXPECT_THROW(static_cast<void>(Machine::from_spec("numa=0")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("=3")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("numa=")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("numa=x")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec(",")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("numa=2,,cores=3")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(Machine::from_spec("qwerty")), std::invalid_argument);
}

TEST(MachineSpec, DegenerateButValidForms) {
  // "l3" alone is a legal symmetric() spelling: 1 NUMA x 1 chip x 1 core
  // with a cache level.
  EXPECT_EQ(Machine::from_spec("l3").ncpus(), 1);
  EXPECT_EQ(Machine::from_spec("cores=2").ncpus(), 2);
}

// Structural invariants that must hold for every machine shape.
class MachineInvariants : public ::testing::TestWithParam<int> {};

Machine make_param_machine(int idx) {
  switch (idx) {
    case 0: return Machine::borderline();
    case 1: return Machine::kwak();
    case 2: return Machine::flat(5);
    case 3: return Machine::symmetric(2, 2, 2, true);
    case 4: return Machine::symmetric(1, 1, 8, true);
    case 5: return Machine::symmetric(8, 2, 4, false);
    default: return Machine::flat(1);
  }
}

TEST_P(MachineInvariants, TreeIsConsistent) {
  const Machine m = make_param_machine(GetParam());
  // Root covers exactly [0, ncpus).
  EXPECT_EQ(m.root().cpus, CpuSet::first_n(m.ncpus()));
  std::set<int> core_ids;
  for (const auto& n : m.nodes()) {
    // Children partition the parent.
    if (!n->children.empty()) {
      CpuSet union_set;
      for (const TopoNode* c : n->children) {
        EXPECT_TRUE(n->cpus.contains(c->cpus));
        EXPECT_FALSE(union_set.intersects(c->cpus)) << "overlapping children";
        union_set |= c->cpus;
        EXPECT_EQ(c->parent, n.get());
        EXPECT_EQ(c->depth, n->depth + 1);
      }
      EXPECT_EQ(union_set, n->cpus) << "children must cover the parent";
    } else {
      EXPECT_EQ(n->level, Level::kCore);
      EXPECT_EQ(n->cpus.count(), 1);
      core_ids.insert(n->cpus.first());
    }
    // Levels strictly deepen along the tree.
    if (n->parent != nullptr) {
      EXPECT_GT(static_cast<int>(n->level), static_cast<int>(n->parent->level));
    }
  }
  EXPECT_EQ(core_ids.size(), static_cast<std::size_t>(m.ncpus()));
  // node_covering(single(c)) is the core node; path_to_root is monotone.
  for (int c = 0; c < m.ncpus(); ++c) {
    EXPECT_EQ(&m.node_covering(CpuSet::single(c)), &m.core_node(c));
    const auto path = m.path_to_root(c);
    EXPECT_EQ(path.front()->level, Level::kCore);
    EXPECT_EQ(path.back(), &m.root());
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_TRUE(path[i]->cpus.contains(path[i - 1]->cpus));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, MachineInvariants, ::testing::Range(0, 6));

}  // namespace
}  // namespace piom::topo
