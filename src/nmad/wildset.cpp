#include "nmad/wildset.hpp"

#include <algorithm>

#include "nmad/gate.hpp"
#include "sync/backoff.hpp"

namespace piom::nmad {

namespace {

/// The registration the calling thread is running, so an inline claim
/// inside it does not wait on itself in purge().
thread_local const void* tl_registration = nullptr;

}  // namespace

void WildSet::add_gate(Gate* g) {
  Registration reg;
  lock_.lock();
  gates_.push_back(g);
  reg.todo.assign(pending_.rbegin(), pending_.rend());  // popped from back
  registrations_.push_back(&reg);
  const void* outer = tl_registration;
  tl_registration = &reg;
  // Register outside the lock: a registration can match staged data and
  // complete the request, which re-enters purge(). A request claimed in
  // the meantime is rejected by the claim re-check under g's matcher lock
  // (the same serialization that protects sibling-gate registrations);
  // one purged meanwhile is gone from reg.todo.
  for (;;) {
    reg.current = nullptr;
    if (reg.todo.empty()) break;
    RecvRequest* r = reg.todo.back();
    reg.todo.pop_back();
    reg.current = r;
    lock_.unlock();
    (void)g->post_wild(*r);
    lock_.lock();
  }
  registrations_.erase(
      std::find(registrations_.begin(), registrations_.end(), &reg));
  tl_registration = outer;
  lock_.unlock();
}

bool WildSet::registering_elsewhere(const RecvRequest& req) const {
  return std::any_of(registrations_.begin(), registrations_.end(),
                     [&req](const Registration* reg) {
                       return reg->current == &req && reg != tl_registration;
                     });
}

void WildSet::set_port(WildPort* port) {
  lock_.lock();
  port_ = port;
  lock_.unlock();
}

void WildSet::post(RecvRequest& req, Tag tag, void* buf, std::size_t cap) {
  req.gate = nullptr;
  req.tag = tag;
  req.buf = buf;
  req.cap = cap;
  req.received = 0;
  req.matched_seq = 0;
  req.source = -1;
  req.wild_claim.store(0, std::memory_order_relaxed);
  req.wild_set = this;
  req.port = nullptr;
  req.core.reset();
  std::vector<Gate*> members;
  lock_.lock();
  pending_.push_back(&req);
  members.assign(gates_.begin(), gates_.end());
  WildPort* port = port_;
  lock_.unlock();
  for (Gate* g : members) {
    if (g != nullptr && g->post_wild(req)) return;
  }
  if (port != nullptr) (void)port->post_wild(req);
}

void WildSet::purge(RecvRequest& req, const void* claimer) {
  std::vector<Gate*> members;
  lock_.lock();
  pending_.erase(std::remove(pending_.begin(), pending_.end(), &req),
                 pending_.end());
  for (Registration* reg : registrations_) {
    reg->todo.erase(std::remove(reg->todo.begin(), reg->todo.end(), &req),
                    reg->todo.end());
  }
  members.assign(gates_.begin(), gates_.end());
  WildPort* port = port_;
  lock_.unlock();
  // A gate added after this snapshot cannot re-register the request: its
  // add_gate snapshot no longer contains it (erased above, serialized by
  // lock_), and a registration racing the erase is rejected by the claim
  // re-check under that gate's matcher lock.
  for (Gate* g : members) {
    if (g != nullptr && static_cast<const void*>(g) != claimer) {
      g->remove_expected(req);
    }
  }
  if (port != nullptr && static_cast<const void*>(port) != claimer) {
    port->remove_expected(req);
  }
  // The caller completes (and its owner may free) the request next: wait
  // out any other thread still inside post_wild() on it.
  sync::Backoff backoff;
  for (;;) {
    lock_.lock();
    const bool busy = registering_elsewhere(req);
    lock_.unlock();
    if (!busy) return;
    backoff.spin();
  }
}

bool WildSet::cancel(RecvRequest& req) {
  std::vector<Gate*> members;
  lock_.lock();
  members.assign(gates_.begin(), gates_.end());
  WildPort* port = port_;
  lock_.unlock();
  for (Gate* g : members) {
    if (g != nullptr && g->cancel_recv(req)) return true;
  }
  if (port != nullptr && port->cancel_recv(req)) return true;
  return false;
}

std::size_t WildSet::gate_count() const {
  lock_.lock();
  const std::size_t n = gates_.size();
  lock_.unlock();
  return n;
}

}  // namespace piom::nmad
