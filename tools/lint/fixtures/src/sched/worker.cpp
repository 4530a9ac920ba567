#include <thread>
struct Worker {
  std::thread thread_;  // ok: the scheduler owns the progression threads
};
