#include "core/task.hpp"

#include <cassert>

namespace piom {

const char* task_state_name(TaskState s) {
  switch (s) {
    case TaskState::kCreated: return "created";
    case TaskState::kQueued: return "queued";
    case TaskState::kRunning: return "running";
    case TaskState::kDone: return "done";
  }
  return "?";
}

void Task::init(Fn f, void* a, const topo::CpuSet& cpus, uint32_t opts) {
  const TaskState s = state.load(std::memory_order_acquire);
  assert(s == TaskState::kCreated || s == TaskState::kDone);
  (void)s;
  fn = f;
  arg = a;
  cpuset = cpus;
  options = opts;
  next.store(nullptr, std::memory_order_relaxed);
  run_count.store(0, std::memory_order_relaxed);
  last_cpu.store(-1, std::memory_order_relaxed);
  state.store(TaskState::kCreated, std::memory_order_release);
}

FunctionTask::FunctionTask(std::function<TaskResult()> body,
                           const topo::CpuSet& cpus, uint32_t opts)
    : body_(std::move(body)) {
  task_.init(&FunctionTask::trampoline, this, cpus, opts);
}

TaskResult FunctionTask::trampoline(void* self) {
  return static_cast<FunctionTask*>(self)->body_();
}

}  // namespace piom
