#include "mpi/engine_pioman.hpp"

#include "mpi/coll.hpp"
#include "nmad/wildset.hpp"
#include "util/log.hpp"

namespace piom::mpi {

PiomanNode::PiomanNode(int workers)
    : machine_(topo::Machine::flat(workers)),
      tm_(machine_),
      runtime_(machine_, tm_),
      timer_(tm_, kTimerPeriod) {}

void PiomanNode::stop() {
  timer_.stop();
  runtime_.stop();
}

int PiomanNode::next_home() {
  home_lock_.lock();
  const int home = home_;
  home_ = (home_ + 1) % machine_.ncpus();
  home_lock_.unlock();
  return home;
}

PiomanEngine::PiomanEngine(nmad::Session& session, PiomanNode& node)
    : session_(session), node_(node) {}

PiomanEngine::~PiomanEngine() { shutdown(); }

TaskResult PiomanEngine::poll_trampoline(void* arg) {
  auto* pt = static_cast<PollTask*>(arg);
  if (pt->engine->stopping_.load(std::memory_order_acquire)) {
    return TaskResult::kDone;
  }
  pt->gate->poll_rail(pt->rail);
  // Packet submission (paper §IV-B): isend only queued the message; this
  // pass packs and posts it.
  if (pt->gate->pending_sends() > 0) pt->gate->flush();
  // Reliability: the rail-0 poller owns the retransmission timer.
  if (pt->rail == 0) pt->gate->check_retransmits();
  // Collectives progress in the background too: whichever poll task runs
  // after a round's requests complete posts the next round — the caller
  // can compute (or park in wait) through the whole collective.
  pt->engine->advance_colls();
  return TaskResult::kAgain;
}

void PiomanEngine::start_progress() {
  if (started_) return;
  started_ = true;
  for (std::size_t g = 0; g < session_.gate_count(); ++g) {
    watch_gate(session_.gate(g));
  }
}

void PiomanEngine::watch_gate(nmad::Gate& gate) {
  // One repeatable polling task per (gate, rail). Paper §IV-B: "In order to
  // maintain polling affinity, the CPU set attached to these tasks contains
  // the cores that share a cache with the current CPU." We spread the tasks
  // across the node and give each the cache-sibling set of its home core.
  poll_lock_.lock();
  if (stopping_.load(std::memory_order_acquire) ||
      !watched_.insert(&gate).second) {
    poll_lock_.unlock();
    return;
  }
  for (int r = 0; r < gate.nrails(); ++r) {
    poll_tasks_.emplace_back();
    PollTask& pt = poll_tasks_.back();
    pt.gate = &gate;
    pt.rail = r;
    pt.engine = this;
    const topo::CpuSet cpus =
        node_.machine().siblings_sharing_cache(node_.next_home());
    pt.task.init(&poll_trampoline, &pt, cpus,
                 piom::kTaskRepeat | piom::kTaskNotify);
    node_.task_manager().submit(&pt.task);
  }
  poll_lock_.unlock();
}

void PiomanEngine::isend(Request& req, nmad::Gate& gate, Tag tag,
                         const void* buf, std::size_t len) {
  req.arm(/*is_send=*/true);
  // Deferred submission: the gate's poll task posts the packet. It runs on
  // an idle worker, on the timer tick, or in the next blocking-section
  // pass, so the caller returns at once and may compute meanwhile.
  gate.isend(req.send_req(), tag, buf, len, /*defer=*/true);
}

void PiomanEngine::irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
                         std::size_t cap) {
  req.arm(/*is_send=*/false);
  gate.irecv(req.recv_req(), tag, buf, cap);
}

void PiomanEngine::irecv_any(Request& req, nmad::WildSet& wilds, Tag tag,
                             void* buf, std::size_t cap) {
  req.arm(/*is_send=*/false);
  wilds.post(req.recv_req(), tag, buf, cap);
}

void PiomanEngine::wait(Request& req) {
  nmad::RequestCore& core = req.req_core();
  if (core.completed()) return;
  // A thread about to block on a send first posts its gate's deferred
  // sends (paper: in a blocking section "the task is processed"). The
  // gate's poll task may be held by a worker that a computing application
  // thread has preempted on its CPU; it would then post the message only
  // once that computation ends.
  if (req.is_send()) {
    nmad::Gate& gate = *req.send_req().gate;
    if (gate.pending_sends() > 0) gate.flush();
  }
  // Blocking hook: one progression pass, then park on the semaphore — the
  // background tasks do the polling. Repeated waits on the same request
  // are fine (wait_done's completed() fast path; the completion token is
  // drained by RequestCore::reset on reuse).
  sched::BlockingSection bs(node_.runtime());
  core.wait_done();
}

bool PiomanEngine::test(Request& req) {
  if (req.done()) return true;
  // MPI_Test drives progress: contribute one scheduling pass.
  node_.runtime().schedule_here();
  return req.done();
}

bool PiomanEngine::test_coll(CollOp& op) {
  if (op.done()) return true;
  node_.runtime().schedule_here();  // one scheduling pass (runs poll tasks)
  advance_colls();
  return op.done();
}

void PiomanEngine::wait_coll(CollOp& op) {
  if (op.done()) return;
  // Park like wait(): the background poll tasks advance the collective's
  // rounds and the finishing sweep posts the completion semaphore.
  sched::BlockingSection bs(node_.runtime());
  op.core().wait_done();
}

void PiomanEngine::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Poll tasks observe stopping_ on their next execution and finish. Wait
  // on a snapshot taken under the lock: watch_gate refuses new gates once
  // stopping_ is set (checked under the same lock), so the snapshot is
  // complete; waiting itself must not hold the lock (tasks may be mid-run).
  poll_lock_.lock();
  std::vector<PollTask*> draining;
  draining.reserve(poll_tasks_.size());
  for (PollTask& pt : poll_tasks_) draining.push_back(&pt);
  poll_lock_.unlock();
  for (PollTask* pt : draining) {
    pt->task.wait_done();
  }
  // Sends still queued when their gate's poll task stopped have no other
  // submitter: post them now so every send issued before shutdown reaches
  // the wire.
  for (PollTask* pt : draining) {
    if (pt->rail == 0) pt->gate->flush();
  }
}

}  // namespace piom::mpi
