#include <thread>
// A std::thread named in a comment is fine.
struct Channel {
  unsigned cpus() const { return std::thread::hardware_concurrency(); }  // ok
  void yield() const { std::this_thread::yield(); }  // ok
  std::thread io_;  // VIOLATION: backends progress by polling
};
