// Machine topology model (the MARCEL topology the paper maps its queue
// hierarchy onto — Fig 2). A Machine is a tree of TopoNodes: the root covers
// every core; leaves are single cores; intermediate levels are NUMA nodes,
// chips (sockets) and shared caches, depending on the machine.
//
// Two synthetic machines reproduce the paper's testbeds:
//   * borderline(): 4-socket dual-core Opteron 8218 — no shared L3, so the
//     levels are Core / Chip / Machine (8 cores). Table I.
//   * kwak(): 4-socket quad-core Opteron 8347HE — shared L3 per chip and
//     4 NUMA nodes, so Core / Cache / Numa / Machine (16 cores). Table II,
//     Fig 3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "topo/cpuset.hpp"

namespace piom::topo {

enum class Level : int {
  kMachine = 0,
  kNuma = 1,
  kChip = 2,
  kCache = 3,
  kCore = 4,
};

[[nodiscard]] const char* level_name(Level level);

struct TopoNode {
  int id = -1;            ///< index into Machine::nodes()
  Level level = Level::kMachine;
  int index_in_level = 0; ///< e.g. "chip #2"
  CpuSet cpus;            ///< cores covered by this node
  TopoNode* parent = nullptr;
  std::vector<TopoNode*> children;
  int depth = 0;          ///< 0 at the root

  [[nodiscard]] std::string name() const;
};

class Machine {
 public:
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  Machine(Machine&&) = default;
  Machine& operator=(Machine&&) = default;

  /// The paper's Table I testbed: 4 chips x 2 cores, no shared cache level.
  [[nodiscard]] static Machine borderline();

  /// The paper's Table II / Fig 3 testbed: 4 NUMA nodes, each one quad-core
  /// chip with a shared L3.
  [[nodiscard]] static Machine kwak();

  /// Generic symmetric machine: `numa_nodes` NUMA nodes, `chips_per_numa`
  /// chips each, `cores_per_chip` cores each. When `shared_cache` is true a
  /// Cache level is inserted under each chip (covering all its cores).
  /// Degenerate level counts collapse (a level with a single child spanning
  /// the same cpus as its parent is still kept distinct only when it groups
  /// a different cpu span — we keep all requested levels for predictability).
  [[nodiscard]] static Machine symmetric(int numa_nodes, int chips_per_numa,
                                         int cores_per_chip, bool shared_cache);

  /// Flat machine: root + n cores, no intermediate level.
  [[nodiscard]] static Machine flat(int ncores);

  /// Best-effort detection of the host (Linux sysfs); falls back to
  /// flat(hardware_concurrency()).
  [[nodiscard]] static Machine detect();

  /// Build from a textual description (env/CLI friendly):
  ///   "borderline" | "kwak" | "host"       — presets / detection
  ///   "flat:8"                             — flat machine, 8 cores
  ///   "numa=4,chips=1,cores=4,l3"          — symmetric() spelled out
  /// Throws std::invalid_argument on junk.
  [[nodiscard]] static Machine from_spec(const std::string& spec);

  [[nodiscard]] int ncpus() const { return ncpus_; }
  [[nodiscard]] const TopoNode& root() const { return *root_; }
  [[nodiscard]] const std::vector<std::unique_ptr<TopoNode>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] std::size_t nnodes() const { return nodes_.size(); }

  /// Leaf node for a given cpu. Throws std::out_of_range for bad ids.
  [[nodiscard]] const TopoNode& core_node(int cpu) const;

  /// Smallest node whose cpuset contains `set` (the queue a task with this
  /// cpuset belongs to). An empty or uncovered set maps to the root.
  [[nodiscard]] const TopoNode& node_covering(const CpuSet& set) const;

  /// Chain of nodes from core `cpu` up to the root (the queues Algorithm 1
  /// scans, in order). Precomputed — no allocation: this sits on the
  /// scheduler's hottest path (every schedule() call walks it).
  [[nodiscard]] const std::vector<const TopoNode*>& path_to_root(int cpu) const;

  /// Victim queues for work stealing on behalf of `cpu`, in locality order:
  /// the subtrees hanging off `cpu`'s nearest ancestor first (cache
  /// siblings), then the next ancestor's (chip), then NUMA, then machine —
  /// each sibling subtree in preorder, so wider (more aggregating) queues
  /// are probed before leaves. Nodes on `cpu`'s own path are excluded:
  /// Algorithm 1 already walks them. Precomputed — no allocation.
  [[nodiscard]] const std::vector<const TopoNode*>& steal_order(int cpu) const;

  /// Cores sharing the deepest non-core level with `cpu` (used by nmad to
  /// express "cores that share a cache with the current CPU").
  [[nodiscard]] CpuSet siblings_sharing_cache(int cpu) const;

  /// Multi-line ASCII rendering of the tree (quickstart / bench banner).
  [[nodiscard]] std::string to_string() const;

 private:
  Machine() = default;

  TopoNode* add_node(Level level, int index_in_level, const CpuSet& cpus,
                     TopoNode* parent);
  void finalize();

  std::vector<std::unique_ptr<TopoNode>> nodes_;
  TopoNode* root_ = nullptr;
  std::vector<TopoNode*> core_by_cpu_;
  std::vector<std::vector<const TopoNode*>> path_by_cpu_;
  std::vector<std::vector<const TopoNode*>> steal_order_by_cpu_;
  int ncpus_ = 0;
};

/// Host CPUs this process may run on: the process affinity mask (the main
/// thread's, so a caller that pinned itself still sees the whole set),
/// falling back to [0, hardware_concurrency()) when the host does not say.
[[nodiscard]] CpuSet usable_cpus();

/// Pin the calling thread to host CPU `cpu`. Best effort: returns false,
/// changing nothing, when `cpu` is not a usable CPU or the host denies
/// affinity changes (as some containers do).
bool pin_current_thread(int cpu);

/// Host CPU the calling thread is running on, or -1 when unknown.
[[nodiscard]] int current_host_cpu();

}  // namespace piom::topo
