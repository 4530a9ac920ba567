#include "topo/machine.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"

namespace piom::topo {

const char* level_name(Level level) {
  switch (level) {
    case Level::kMachine: return "machine";
    case Level::kNuma: return "numa";
    case Level::kChip: return "chip";
    case Level::kCache: return "cache";
    case Level::kCore: return "core";
  }
  return "?";
}

std::string TopoNode::name() const {
  std::string s = level_name(level);
  s += " #" + std::to_string(index_in_level);
  return s;
}

TopoNode* Machine::add_node(Level level, int index_in_level,
                            const CpuSet& cpus, TopoNode* parent) {
  auto node = std::make_unique<TopoNode>();
  node->id = static_cast<int>(nodes_.size());
  node->level = level;
  node->index_in_level = index_in_level;
  node->cpus = cpus;
  node->parent = parent;
  node->depth = (parent != nullptr) ? parent->depth + 1 : 0;
  TopoNode* raw = node.get();
  if (parent != nullptr) parent->children.push_back(raw);
  nodes_.push_back(std::move(node));
  if (parent == nullptr) root_ = raw;
  return raw;
}

void Machine::finalize() {
  ncpus_ = root_->cpus.count();
  core_by_cpu_.assign(static_cast<std::size_t>(ncpus_), nullptr);
  for (const auto& n : nodes_) {
    if (n->level == Level::kCore) {
      const int cpu = n->cpus.first();
      if (cpu >= 0 && cpu < ncpus_) {
        core_by_cpu_[static_cast<std::size_t>(cpu)] = n.get();
      }
    }
  }
  for (int c = 0; c < ncpus_; ++c) {
    if (core_by_cpu_[static_cast<std::size_t>(c)] == nullptr) {
      throw std::logic_error("Machine: cpu " + std::to_string(c) +
                             " has no core node");
    }
  }
  path_by_cpu_.resize(static_cast<std::size_t>(ncpus_));
  for (int c = 0; c < ncpus_; ++c) {
    auto& path = path_by_cpu_[static_cast<std::size_t>(c)];
    for (const TopoNode* n = core_by_cpu_[static_cast<std::size_t>(c)];
         n != nullptr; n = n->parent) {
      path.push_back(n);
    }
  }
  // Steal order: walk up the path; at each ancestor, append every sibling
  // subtree (preorder) that the previous path node is not part of. The
  // result is every off-path node, grouped by topological distance.
  steal_order_by_cpu_.resize(static_cast<std::size_t>(ncpus_));
  for (int c = 0; c < ncpus_; ++c) {
    auto& order = steal_order_by_cpu_[static_cast<std::size_t>(c)];
    const TopoNode* on_path = core_by_cpu_[static_cast<std::size_t>(c)];
    for (const TopoNode* anc = on_path->parent; anc != nullptr;
         on_path = anc, anc = anc->parent) {
      for (const TopoNode* sibling : anc->children) {
        if (sibling == on_path) continue;
        std::vector<const TopoNode*> stack{sibling};
        while (!stack.empty()) {
          const TopoNode* n = stack.back();
          stack.pop_back();
          order.push_back(n);
          for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
            stack.push_back(*it);
          }
        }
      }
    }
  }
}

Machine Machine::symmetric(int numa_nodes, int chips_per_numa,
                           int cores_per_chip, bool shared_cache) {
  if (numa_nodes < 1 || chips_per_numa < 1 || cores_per_chip < 1) {
    throw std::invalid_argument("Machine::symmetric: all counts must be >= 1");
  }
  const int total = numa_nodes * chips_per_numa * cores_per_chip;
  if (total > CpuSet::kMaxCpus) {
    throw std::invalid_argument("Machine::symmetric: too many cores");
  }
  Machine m;
  TopoNode* root = m.add_node(Level::kMachine, 0, CpuSet::first_n(total), nullptr);
  int cpu = 0;
  int chip_index = 0;
  int cache_index = 0;
  int core_index = 0;
  for (int n = 0; n < numa_nodes; ++n) {
    const int numa_lo = cpu;
    TopoNode* numa = nullptr;
    if (numa_nodes > 1) {
      numa = m.add_node(Level::kNuma, n,
                        CpuSet::range(numa_lo, numa_lo + chips_per_numa * cores_per_chip),
                        root);
    }
    TopoNode* numa_parent = (numa != nullptr) ? numa : root;
    for (int c = 0; c < chips_per_numa; ++c) {
      const int chip_lo = cpu;
      TopoNode* chip = m.add_node(
          Level::kChip, chip_index++,
          CpuSet::range(chip_lo, chip_lo + cores_per_chip), numa_parent);
      TopoNode* core_parent = chip;
      if (shared_cache) {
        core_parent = m.add_node(Level::kCache, cache_index++,
                                 CpuSet::range(chip_lo, chip_lo + cores_per_chip),
                                 chip);
      }
      for (int k = 0; k < cores_per_chip; ++k) {
        m.add_node(Level::kCore, core_index++, CpuSet::single(cpu), core_parent);
        ++cpu;
      }
    }
  }
  m.finalize();
  return m;
}

Machine Machine::borderline() {
  // 4 sockets x 2 cores, single NUMA domain, no shared L3: the queue levels
  // the paper reports for Table I are per-core, per-chip and global.
  return symmetric(/*numa_nodes=*/1, /*chips_per_numa=*/4,
                   /*cores_per_chip=*/2, /*shared_cache=*/false);
}

Machine Machine::kwak() {
  // 4 NUMA nodes, one quad-core chip each, shared L3 per chip (Fig 3).
  return symmetric(/*numa_nodes=*/4, /*chips_per_numa=*/1,
                   /*cores_per_chip=*/4, /*shared_cache=*/true);
}

Machine Machine::flat(int ncores) {
  if (ncores < 1 || ncores > CpuSet::kMaxCpus) {
    throw std::invalid_argument("Machine::flat: bad core count");
  }
  Machine m;
  TopoNode* root =
      m.add_node(Level::kMachine, 0, CpuSet::first_n(ncores), nullptr);
  for (int c = 0; c < ncores; ++c) {
    m.add_node(Level::kCore, c, CpuSet::single(c), root);
  }
  m.finalize();
  return m;
}

namespace {
/// Read an integer sysfs file, -1 on failure.
int read_sysfs_int(const std::string& path) {
  std::ifstream f(path);
  int v = -1;
  if (f && (f >> v)) return v;
  return -1;
}
}  // namespace

Machine Machine::detect() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int ncores = hw > 0 ? static_cast<int>(hw) : 1;
  // Group cpus by physical package id when sysfs exposes it; otherwise flat.
  std::map<int, CpuSet> packages;
  bool sysfs_ok = true;
  for (int c = 0; c < ncores && c < CpuSet::kMaxCpus; ++c) {
    const int pkg = read_sysfs_int(
        "/sys/devices/system/cpu/cpu" + std::to_string(c) +
        "/topology/physical_package_id");
    if (pkg < 0) {
      sysfs_ok = false;
      break;
    }
    packages[pkg].set(c);
  }
  if (!sysfs_ok || packages.size() <= 1) {
    PIOM_LOG_INFO("topology detect: flat machine with %d cores", ncores);
    return flat(std::min(ncores, CpuSet::kMaxCpus));
  }
  Machine m;
  const int total = std::min(ncores, CpuSet::kMaxCpus);
  TopoNode* root =
      m.add_node(Level::kMachine, 0, CpuSet::first_n(total), nullptr);
  int chip_index = 0;
  int core_index = 0;
  for (const auto& [pkg, cpus] : packages) {
    TopoNode* chip = m.add_node(Level::kChip, chip_index++, cpus, root);
    for (int c = cpus.first(); c >= 0; c = cpus.next(c)) {
      m.add_node(Level::kCore, core_index++, CpuSet::single(c), chip);
    }
  }
  m.finalize();
  PIOM_LOG_INFO("topology detect: %zu packages, %d cores", packages.size(),
                m.ncpus());
  return m;
}

Machine Machine::from_spec(const std::string& spec) {
  if (spec == "borderline") return borderline();
  if (spec == "kwak") return kwak();
  if (spec == "host") return detect();
  if (spec.rfind("flat:", 0) == 0) {
    const int n = std::atoi(spec.c_str() + 5);
    if (n < 1) throw std::invalid_argument("Machine::from_spec: bad flat:N");
    return flat(n);
  }
  // key=value[,key=value...] form for symmetric().
  int numa = 1, chips = 1, cores = 1;
  bool l3 = false;
  bool any = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item == "l3") {
      l3 = true;
      any = true;
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Machine::from_spec: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const int value = std::atoi(item.c_str() + eq + 1);
    if (value < 1) {
      throw std::invalid_argument("Machine::from_spec: bad value in '" + item +
                                  "'");
    }
    if (key == "numa") {
      numa = value;
    } else if (key == "chips") {
      chips = value;
    } else if (key == "cores") {
      cores = value;
    } else {
      throw std::invalid_argument("Machine::from_spec: unknown key '" + key +
                                  "'");
    }
    any = true;
  }
  if (!any) throw std::invalid_argument("Machine::from_spec: empty spec");
  return symmetric(numa, chips, cores, l3);
}

const TopoNode& Machine::core_node(int cpu) const {
  if (cpu < 0 || cpu >= ncpus_) {
    throw std::out_of_range("Machine::core_node: bad cpu " +
                            std::to_string(cpu));
  }
  return *core_by_cpu_[static_cast<std::size_t>(cpu)];
}

const TopoNode& Machine::node_covering(const CpuSet& set) const {
  if (set.empty()) return *root_;
  // Walk down from the root while exactly one child covers the set.
  const TopoNode* node = root_;
  if (!node->cpus.contains(set)) return *root_;
  for (;;) {
    const TopoNode* next = nullptr;
    for (const TopoNode* child : node->children) {
      if (child->cpus.contains(set)) {
        next = child;
        break;
      }
    }
    if (next == nullptr) return *node;
    node = next;
  }
}

const std::vector<const TopoNode*>& Machine::path_to_root(int cpu) const {
  if (cpu < 0 || cpu >= ncpus_) {
    throw std::out_of_range("Machine::path_to_root: bad cpu " +
                            std::to_string(cpu));
  }
  return path_by_cpu_[static_cast<std::size_t>(cpu)];
}

const std::vector<const TopoNode*>& Machine::steal_order(int cpu) const {
  if (cpu < 0 || cpu >= ncpus_) {
    throw std::out_of_range("Machine::steal_order: bad cpu " +
                            std::to_string(cpu));
  }
  return steal_order_by_cpu_[static_cast<std::size_t>(cpu)];
}

CpuSet Machine::siblings_sharing_cache(int cpu) const {
  const TopoNode* n = &core_node(cpu);
  // The parent of a core is the deepest grouping level (cache if present,
  // else chip, else numa/machine).
  return (n->parent != nullptr) ? n->parent->cpus : n->cpus;
}

std::string Machine::to_string() const {
  std::ostringstream os;
  // Depth-first walk with indentation.
  struct Frame {
    const TopoNode* node;
  };
  std::vector<const TopoNode*> stack{root_};
  while (!stack.empty()) {
    const TopoNode* n = stack.back();
    stack.pop_back();
    for (int i = 0; i < n->depth; ++i) os << "  ";
    os << n->name() << "  cpus={" << n->cpus.to_string() << "}\n";
    for (auto it = n->children.rbegin(); it != n->children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return os.str();
}

CpuSet usable_cpus() {
  CpuSet set;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(getpid(), sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CpuSet::kMaxCpus; ++c) {
      if (CPU_ISSET(static_cast<unsigned>(c), &mask)) set.set(c);
    }
  }
  if (set.empty()) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    set = CpuSet::first_n(std::clamp(hw, 1, CpuSet::kMaxCpus));
  }
  return set;
}

bool pin_current_thread(int cpu) {
  if (!usable_cpus().test(cpu)) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    PIOM_LOG_DEBUG("pinning a thread to cpu %d failed (ignored)", cpu);
    return false;
  }
  return true;
}

int current_host_cpu() { return sched_getcpu(); }

}  // namespace piom::topo
