// WildSet: the registry any-source receives are posted against. With eager
// full-mesh wiring the gate list was a fixed by-peer vector; with lazy gates
// the set of match candidates *grows while requests are parked*, so the
// registry is a first-class object: gates join it when they are created,
// and every pending wildcard is (exactly once) registered with each member.
//
// A WildPort is a non-gate match candidate — the membership layer's forward
// inbox, where messages from ranks this rank has no direct gate to arrive.
// It obeys the same post_wild/remove_expected contract as Gate, including
// the claim re-check under its own lock (see Gate::match_or_post).
//
// Coverage invariant: for every (pending request, member) pair exactly one
// side performs the registration. post() appends the request and snapshots
// the membership under one lock; add_gate() appends the gate and snapshots
// the pending requests under the same lock. Whichever append lands second
// sees the other in its snapshot — and only that one registers the pair.
// The actual post_wild calls run OUTSIDE the lock: a registration can match
// staged data and complete the request inline, which re-enters the set via
// purge().
//
// Lifetime invariant: add_gate() never touches a request purge() has
// returned for. Its snapshot is a Registration the set can see: purge()
// strikes the request from every registration's to-do list, then waits
// until no *other* thread is inside post_wild() on it (the thread that
// claimed it inline, inside its own add_gate, is exempt — a thread-local
// marker names it). The claimer's owner may free the request the moment
// it completes, so without this wait a late registration would read freed
// memory. An in-progress registration never waits on a purge of the same
// request (only the claim winner purges, and post_wild of an
// already-claimed request returns under the matcher lock), so the wait is
// bounded.
#pragma once

#include <cstddef>
#include <vector>

#include "nmad/types.hpp"
#include "sync/spinlock.hpp"

namespace piom::nmad {

class Gate;
struct RecvRequest;

/// A non-gate wildcard match candidate (the membership forward inbox).
/// Same contract as the corresponding Gate methods.
class WildPort {
 public:
  virtual ~WildPort() = default;
  /// Register an any-source receive: match immediately against staged
  /// arrivals, else park. True when the request needs no further
  /// registrations (matched here, or already claimed elsewhere).
  virtual bool post_wild(RecvRequest& req) = 0;
  /// Drop a registration claimed elsewhere. No-op when not parked here.
  virtual void remove_expected(RecvRequest& req) = 0;
  /// Withdraw + error-complete a parked receive (MPI_Cancel-style). False
  /// when the request is not parked here.
  virtual bool cancel_recv(RecvRequest& req) = 0;
};

class WildSet {
 public:
  WildSet() = default;
  WildSet(const WildSet&) = delete;
  WildSet& operator=(const WildSet&) = delete;

  /// Add a gate to the set and register every pending wildcard with it.
  /// Called once per gate, at creation.
  void add_gate(Gate* g);

  /// Install the (single) non-gate member. Must happen before any post().
  void set_port(WildPort* port);

  /// Post `req` as an any-source receive across the current membership
  /// (and, transparently, any gate added later). Initialises the request
  /// like Gate::irecv does. `req` must outlive its completion.
  void post(RecvRequest& req, Tag tag, void* buf, std::size_t cap);

  /// Remove a claimed request from every member except `claimer` (compared
  /// by address — a Gate* or WildPort* cast to void*). Must be called
  /// WITHOUT locks and BEFORE completing the request, by whoever won the
  /// claim CAS.
  void purge(RecvRequest& req, const void* claimer);

  /// Cancel a parked wildcard: first member that still holds it withdraws
  /// and error-completes it. False when no member holds it (matched
  /// already, completion may be in flight).
  bool cancel(RecvRequest& req);

  [[nodiscard]] std::size_t gate_count() const;

 private:
  /// One add_gate() call's snapshot of the parked requests, visible to
  /// purge() while the registrations run.
  struct Registration {
    std::vector<RecvRequest*> todo;  ///< not yet registered with the gate
    RecvRequest* current = nullptr;  ///< inside post_wild() right now
  };

  /// True while a thread other than the caller is registering `req`.
  [[nodiscard]] bool registering_elsewhere(const RecvRequest& req) const
      PIOM_REQUIRES(lock_);

  mutable sync::SpinLock lock_;
  std::vector<Gate*> gates_ PIOM_GUARDED_BY(lock_);
  std::vector<RecvRequest*> pending_ PIOM_GUARDED_BY(lock_);
  WildPort* port_ PIOM_GUARDED_BY(lock_) = nullptr;
  std::vector<Registration*> registrations_ PIOM_GUARDED_BY(lock_);
};

}  // namespace piom::nmad
