#include <thread>
// Only src/sched/ may own threads; a disk engine thread elsewhere fires.
struct Disk {
  std::thread engine_;  // VIOLATION: no thread owner outside src/sched/
};
