#ifndef FUSION_MEDIATOR_SERVICE_H_
#define FUSION_MEDIATOR_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "mediator/client.h"
#include "mediator/session.h"
#include "obs/slo.h"
#include "protocol/chaos.h"
#include "protocol/client_protocol.h"
#include "protocol/socket.h"

namespace fusion {

/// The serving layer of fusionqd: multiplexes many concurrent clients onto
/// **one** shared QuerySession, so every client benefits from — and
/// contributes to — the same result cache, circuit breakers, and learned
/// statistics. Two clients submitting the same query concurrently cost one
/// set of source calls (the cache single-flights the overlap); a source
/// that trips its breaker under one client's traffic fast-fails everyone
/// else's calls too.
///
/// Request lifecycle:
///
///   Submit ──▶ admission (bounded queue; kUnavailable when saturated)
///          ──▶ an execution permit (Options::workers of them): a waiting
///              SUBMIT that finds nothing queued and a permit free runs
///              at once on its own connection thread; anything else joins
///              its client's FIFO, clients drained round-robin onto the
///              service's ThreadPool as permits free (fair share: a chatty
///              client cannot starve an occasional one). Either way a
///              cooperative cancellation token is plumbed into the executor
///          ──▶ outcome retained for STATUS/Wait/replay as the wire
///              summary only (answer items, metering, explain lines if
///              asked for), evicted FIFO after Options::max_retained
///              completions, Options::max_dedup request-ids, or
///              kMaxRetainedBytes of retained outcomes
///
/// Surfaces: the programmatic Submit/Wait/Cancel/Status API (used by tests
/// and embedded drivers), the protocol-level Handle() mapping one FUSIONQ/1
/// request to one response, and ServeConnection() — the blocking
/// read-dispatch-reply loop run per accepted socket.
///
/// All public methods are thread-safe; one QueryService instance serves
/// every connection thread of the daemon.
class QueryService {
 public:
  struct Options {
    /// Server identity reported in the HELLO handshake.
    std::string server_name = "fusionqd";
    /// Execution permits: how many requests run concurrently, whether on
    /// the service's pool (which has this many threads) or inline on a
    /// connection thread. Each running request may itself use
    /// ClientOptions::execution.parallelism pool workers of its own for
    /// intra-query parallelism.
    int workers = 4;
    /// Admission bound: requests queued (admitted, not yet running) beyond
    /// which Submit sheds load with kUnavailable. Running requests do not
    /// count against the bound.
    size_t max_queue = 64;
    /// Completed requests whose tickets STATUS/Wait can still look up
    /// before FIFO eviction. What a ticket retains is the answer summary
    /// (items, metering counters, explain lines when the SUBMIT asked for
    /// them), never the plan, ledger or witness sets.
    size_t max_retained = 256;
    /// Idempotency dedup entries retained — (client, request-id) pairs that
    /// map a re-SUBMIT after a reconnect back to its original outcome (the
    /// same summary a ticket retains). Evicted FIFO; an evicted request-id
    /// re-executes (at-most-once within the window, at-least-once beyond
    /// it). Both windows are also bounded by kMaxRetainedBytes.
    size_t max_dedup = 1024;
    /// The shared session's configuration (statistics, cache, breakers,
    /// execution policy) — one ClientOptions, same struct the embedded
    /// client uses.
    ClientOptions client;
  };

  /// One request's externally visible state.
  struct RequestStatus {
    /// "queued" | "running" | "done" | "failed" | "cancelled".
    std::string state;
    /// The outcome; meaningful once state is terminal ("done" carries the
    /// answer, "failed"/"cancelled" the error).
    Result<ClientAnswer> outcome = Status::Unavailable("not finished");
  };

  /// Byte budget of the retained outcomes of the ticket and dedup tables
  /// together, each request counted once however many tables hold it.
  /// Past it the oldest retained request leaves both tables, whichever
  /// count window it is in. Set about twice above what one service of the
  /// serving benchmark retains at its peak (6.8 MB on zipf_warm, 8.9 MB on
  /// cold_budget, 5.4 MB on fleet_churn), so there the count windows alone
  /// decide eviction.
  static constexpr size_t kMaxRetainedBytes = size_t{16} << 20;

  QueryService(Mediator mediator, const Options& options);
  /// Cancels everything outstanding, drains the pool, joins.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Per-submission extras beyond (client, sql): the distributed trace
  /// context the execution should join (0 = none — the request roots its
  /// own spans).
  struct SubmitOptions {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    /// Client-minted idempotency key (0 = none). A Submit whose
    /// (client_id, request_id) pair matches a retained earlier submission
    /// returns the *original* ticket without executing anything — the
    /// reconnect-replay path of FUSIONQ/1.
    uint64_t request_id = 0;
    /// Render the executed plan's explain lines into the retained outcome
    /// (FUSIONQ/1 `explain yes`). They are rendered on the worker, before
    /// the plan is released, so a replay returns the same lines.
    bool explain = false;
  };

  /// Admits one query for `client_id` and returns its ticket, or
  /// kUnavailable when the admission queue is full (load shedding — the
  /// client should back off and resubmit) or the service is shutting down.
  Result<uint64_t> Submit(const std::string& client_id,
                          const std::string& sql) {
    return Submit(client_id, sql, SubmitOptions{});
  }
  Result<uint64_t> Submit(const std::string& client_id, const std::string& sql,
                          const SubmitOptions& submit_options);

  /// Blocks until the ticket's request reaches a terminal state and
  /// returns its outcome. kNotFound for unknown/evicted tickets.
  Result<ClientAnswer> Wait(uint64_t ticket);

  /// Snapshot of a ticket's state without blocking.
  Result<RequestStatus> Poll(uint64_t ticket) const;

  /// Requests cooperative cancellation: a queued request never starts; a
  /// running one aborts at its next source-call admission (kCancelled) —
  /// its executor workers are freed, not leaked. Idempotent.
  Status Cancel(uint64_t ticket);

  /// Protocol entry point: one serialized FUSIONQ/1 request in, one
  /// serialized response out (never throws, never returns malformed text —
  /// parse and execution failures become ERROR responses). SUBMIT with
  /// wait=yes blocks until the answer, running it on the calling thread
  /// when nothing is queued and a permit is free: this is the driver that
  /// makes concurrent clients exercise the shared cache and breakers.
  std::string Handle(const std::string& request_text);

  /// Runs the per-connection serve loop (ServeFrames over Handle, with the
  /// FUSIONQ/1 receive limit and TcpServer's stall deadline) until the peer
  /// closes or the socket errors. Accepts a plain MessageSocket (implicitly
  /// wrapped, no chaos) or a ChaosSocket carrying a fault-injection policy.
  /// fusionqd serves the same loop through TcpServer (FrameHandler).
  void ServeConnection(ChaosSocket socket);

  /// Begins shutdown: rejects new submissions and cancels all outstanding
  /// requests. Called by the destructor; exposed for the daemon's signal
  /// path.
  void Shutdown();

  QuerySession& session() { return *session_; }
  const std::string& server_name() const { return options_.server_name; }
  /// Requests shed with kUnavailable at admission since construction.
  size_t shedded() const;
  /// Submits answered from the idempotency dedup table (no execution, no
  /// second metering) since construction.
  size_t idempotent_replays() const;
  /// Approximate bytes held by retained outcomes (ticket and dedup tables
  /// together); never above kMaxRetainedBytes once a Submit or a
  /// completion returns.
  size_t retained_bytes() const;

  /// Drops every cached call result and witness for the named source —
  /// the FUSIONQ/1 INVALIDATE verb, the fleet's cache-coherence path.
  /// Version semantics make fan-out replays idempotent: version 0 applies
  /// unconditionally; a version above the highest applied for that source
  /// applies and is recorded; anything at or below it is a stale no-op.
  /// Returns "applied" or "stale" (the response's `state`), kNotFound for
  /// an unknown source name.
  Result<std::string> Invalidate(const std::string& source_name,
                                 uint64_t version);
  /// INVALIDATEs applied / answered stale since construction.
  size_t invalidates_applied() const;
  size_t invalidates_stale() const;

  /// Per-tenant SLO accounting (keyed by the FUSIONQ/1 client id): latency
  /// histograms, metered cost, shed/deadline/cancel/degraded counts, and
  /// the rolling error rate. One registry per service, not process-global.
  const SloRegistry& slo() const { return slo_; }

  /// The versioned STATS text exposition this service serves over the wire
  /// (obs/exposition.h): every process metric plus this service's tenant
  /// SLO table. Exposed directly so embedded drivers and tests need no
  /// protocol round trip.
  std::string StatsText() const;

 private:
  struct Request {
    uint64_t ticket = 0;
    std::string client_id;
    std::string sql;
    /// Inbound distributed trace context; the execution's spans join it.
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    bool explain = false;
    /// Admission time — SLO latency is client-perceived (queueing included).
    std::chrono::steady_clock::time_point admitted_at;
    /// The cooperative cancellation token, plumbed into ExecOptions::cancel
    /// for the whole execution.
    std::atomic<bool> cancel{false};
    std::string state = "queued";  // guarded by QueryService::mutex_
    bool finished = false;         // guarded by QueryService::mutex_
    /// Signalled (with mutex_) when `finished` is set; only this request's
    /// waiters sleep on it.
    std::condition_variable finished_cv;
    /// How many of by_ticket_ and dedup_ hold this request, and the bytes
    /// its finished outcome counts in retained_bytes_ while that is > 0.
    int holders = 0;               // guarded by QueryService::mutex_
    size_t retained_bytes = 0;     // guarded by QueryService::mutex_
    /// Written once, under mutex_, before `finished` is set; read-only
    /// after, so a holder of the RequestPtr may read it unlocked.
    Result<ClientAnswer> outcome = Status::Unavailable("pending");
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// A pool task holding one permit: pops the next request in round-robin
  /// client order and runs it (or finishes it as cancelled if it was
  /// cancelled while queued).
  void PopAndRun();
  /// The one run-and-finish body of both paths: executes a request that
  /// holds a permit, records it, and releases the permit.
  void Run(const RequestPtr& request);
  /// Returns a permit and hands permits to queued requests (one PopAndRun
  /// each) while both remain; the caller submits the returned count of
  /// tasks after unlocking.
  size_t ReleasePermitLocked();
  size_t DispatchLocked();
  void SubmitTasks(size_t tasks);
  /// Picks the next request under mutex_ (round-robin over clients with
  /// pending work); null when nothing is queued.
  RequestPtr NextLocked();
  void FinishLocked(const RequestPtr& request, std::string state,
                    Result<ClientAnswer> outcome);
  /// Submit's body: the admitted request, or the original one on an
  /// idempotent replay. With `run_here` non-null, a request that finds
  /// nothing queued and a permit free takes the permit instead of
  /// queueing and `*run_here` is set: the caller must Run() it.
  Result<RequestPtr> Admit(const std::string& client_id,
                           const std::string& sql,
                           const SubmitOptions& submit_options,
                           bool* run_here = nullptr);
  /// Blocks until `request` is terminal. Its outcome is then read-only.
  void AwaitFinished(Request& request);

  /// A table stops holding `request`; retained_bytes_ counts a finished
  /// request while any table holds it.
  void ReleaseLocked(Request& request);
  /// Evicts the oldest entry of the ticket window (retired_order_) or of
  /// the dedup window (dedup_order_).
  void PopRetiredLocked();
  void PopDedupLocked();
  /// Evicts the oldest retained requests, across both windows, until
  /// retained_bytes_ fits kMaxRetainedBytes.
  void EnforceByteBudgetLocked();

  ClientResponse HandleParsed(const ClientRequest& request);

  /// Accounts one terminal request into slo_ (latency from admission,
  /// metered cost, outcome class, completeness). Called outside mutex_.
  void RecordSlo(const Request& request, const Result<ClientAnswer>& outcome);

  Options options_;
  std::unique_ptr<QuerySession> session_;
  SloRegistry slo_;

  mutable std::mutex mutex_;
  bool shutting_down_ = false;
  /// Permits held (requests running inline, plus PopAndRun tasks submitted
  /// or running), at most Options::workers; and how many of those tasks
  /// have not yet popped their request (never more than queued_).
  int running_ = 0;
  size_t dispatched_ = 0;
  /// Signalled when running_ drops to 0; the destructor waits on it.
  std::condition_variable idle_cv_;
  uint64_t next_ticket_ = 0;
  /// Per-client FIFO queues + the round-robin rotation over client ids
  /// with pending work (a client id appears in rotation_ iff its queue is
  /// non-empty; NextLocked pops the front id and re-appends it while work
  /// remains — textbook fair round-robin).
  std::map<std::string, std::deque<RequestPtr>> pending_;
  std::deque<std::string> rotation_;
  size_t queued_ = 0;
  size_t shedded_ = 0;
  size_t idempotent_replays_ = 0;
  size_t retained_bytes_ = 0;
  /// Ticket index for STATUS/CANCEL/Wait; completed entries evicted FIFO.
  std::map<uint64_t, RequestPtr> by_ticket_;
  std::deque<uint64_t> retired_order_;
  /// Idempotency dedup: (client id, request-id) -> the original request.
  /// Holds the RequestPtr itself (not just the ticket) so a replay can
  /// recover the outcome even after by_ticket_ FIFO eviction. Bounded by
  /// Options::max_dedup, evicted FIFO via dedup_order_.
  std::map<std::pair<std::string, uint64_t>, RequestPtr> dedup_;
  std::deque<std::pair<std::string, uint64_t>> dedup_order_;
  /// Highest INVALIDATE version applied per source name (coherence stamps;
  /// version-0 unconditional invalidations are not recorded here).
  std::map<std::string, uint64_t> invalidate_versions_;
  size_t invalidates_applied_ = 0;
  size_t invalidates_stale_ = 0;

  /// Declared last so its destructor (drain + join) runs before the state
  /// it uses is torn down.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fusion

#endif  // FUSION_MEDIATOR_SERVICE_H_
