#ifndef FUSION_MEDIATOR_CLIENT_H_
#define FUSION_MEDIATOR_CLIENT_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mediator/session.h"
#include "plan/plan.h"
#include "protocol/client_protocol.h"
#include "protocol/tcp_link.h"

namespace fusion {

/// The one options struct of the client surface. Everything a caller can
/// configure — optimizer strategy, statistics mode, execution/fault policy,
/// cache and breaker bounds, planning priors — lives here, shared verbatim
/// with QuerySession so the embedded and served paths cannot drift.
using ClientOptions = QuerySession::Options;

/// Per-call overrides (strategy / statistics / cancellation / deadline).
using CallControls = QuerySession::CallControls;

/// What a client gets back for one query: the fused answer plus the metering
/// a caller acts on, identical in shape whether the query ran in-process or
/// through a fusionqd service. `detail` carries the full QueryAnswer
/// (optimized plan, execution report, ledger) in embedded mode and is null
/// in remote mode and in a service's retained outcomes — the wire protocol
/// ships the summary, not the plan.
struct ClientAnswer {
  ItemSet items;
  /// Total metered cost of this query's source traffic.
  double cost = 0.0;
  /// Source queries issued (ledger entries; cache hits issue none).
  size_t source_queries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_containment_hits = 0;  // FUSIONQ/1 `cache-containment` field
  /// Merge-attribute items shipped to sources (semijoin bindings, probes)
  /// and received back (answer items) — the bytes-moved proxy the cost
  /// model charges per item, summed over this query's ledger.
  size_t items_sent = 0;
  size_t items_received = 0;
  /// Probe traffic charged by kCalibrated statistics (0 otherwise).
  double calibration_cost = 0.0;
  /// False iff the answer is sound but degraded (sources excluded).
  bool complete = true;
  /// The executed plan annotated with per-op cost / wall-clock / cache
  /// provenance, one line per op (see RenderExplainLines). Filled by
  /// QuerySqlExplained in both modes; empty otherwise.
  std::vector<std::string> explain_lines;
  std::shared_ptr<const QueryAnswer> detail;
};

/// Summarizes a full QueryAnswer into the client-facing ClientAnswer —
/// the one conversion both the embedded client and the serving layer use,
/// so local and served answers cannot diverge in shape. With `keep_detail`
/// the whole QueryAnswer rides along as `detail` (the embedded client);
/// without it the items are moved out and the rest is released (the
/// serving layer, which retains only what STATUS, Wait and a replay return).
ClientAnswer SummarizeAnswer(QueryAnswer answer, bool keep_detail = true);

/// The display names RenderExplainLines prints: the query's condition texts
/// and the catalog's source names.
PlanPrintNames ExplainNames(const FusionQuery& query,
                            const SourceCatalog& catalog);

/// Renders the executed plan with one annotation per op — metered cost,
/// wall-clock milliseconds, and cache provenance (hit / containment /
/// miss / none) — after a header naming the algorithm, plan class, and
/// estimated vs. measured cost. The same renderer backs `fusionq
/// --explain` (embedded) and the FUSIONQ/1 `explain` response lines
/// (served), so the two surfaces cannot drift.
std::vector<std::string> RenderExplainLines(const QueryAnswer& answer,
                                            const PlanPrintNames& names);

/// The client API of the system: one facade over the whole stack
/// (catalog → statistics → optimizer → executor → cache/breakers), built
/// once and then asked fusion queries. Two modes behind the same surface:
///
///  - **embedded**: the client owns a QuerySession over a local catalog;
///    every call runs the full mediator stack in-process;
///  - **connected**: the client speaks FUSIONQ/1 to a fusionqd service
///    (Builder::Connect), sharing that daemon's session — and therefore its
///    result cache, breakers, and learned statistics — with every other
///    connected client.
///
/// Construction goes through the Builder, aimed at a Target:
///
///   FUSION_ASSIGN_OR_RETURN(
///       Client client,
///       Client::Builder()
///           .To(Client::Target::EmbeddedFile("dmv.ini"))
///           .Build());
///   FUSION_ASSIGN_OR_RETURN(ClientAnswer a, client.QuerySql(sql));
///
/// A Client is move-only. An embedded client may be shared by concurrent
/// threads (QuerySession is thread-safe); a connected client serializes its
/// request/response exchanges internally.
class Client {
 public:
  /// Where a Client runs its queries — the one sum-type that replaced the
  /// Builder's three mutually-exclusive Catalog/CatalogFile/Connect
  /// setters. Embedded targets run the full mediator stack in-process;
  /// Remote targets speak FUSIONQ/1 to one endpoint or to several (a
  /// fusionrd router, or the shard list directly), dialed through one
  /// TcpLink: stay with the endpoint that last worked, move to the next on
  /// transport failure.
  class Target {
   public:
    /// Embedded mode over an already-built catalog.
    static Target Embedded(SourceCatalog catalog) {
      Target target;
      target.catalog_ = std::move(catalog);
      target.have_catalog_ = true;
      return target;
    }
    /// Embedded mode over an INI catalog config (see cli/catalog_config.h).
    static Target EmbeddedFile(std::string path) {
      Target target;
      target.catalog_file_ = std::move(path);
      return target;
    }
    /// Connected mode: one or more "host:port" endpoints, tried in order.
    static Target Remote(std::vector<std::string> endpoints) {
      Target target;
      target.endpoints_ = std::move(endpoints);
      return target;
    }
    static Target Remote(std::string endpoint) {
      return Remote(std::vector<std::string>{std::move(endpoint)});
    }

   private:
    friend class Client;
    Target() = default;

    SourceCatalog catalog_;
    bool have_catalog_ = false;
    std::string catalog_file_;
    std::vector<std::string> endpoints_;
  };

  class Builder {
   public:
    /// Aims the client at `target` (exactly one target per Build).
    Builder& To(Target target) {
      target_ = std::move(target);
      ++targets_set_;
      return *this;
    }

    /// Connected mode's fair-scheduling identity (defaults to "anon"; every
    /// distinct id gets its own round-robin turn at the service).
    Builder& ClientId(const std::string& id) {
      client_id_ = id;
      return *this;
    }
    /// Connected mode's transparent-reconnect policy: how many dial/exchange
    /// attempts a lost connection gets (at least one per endpoint), and the
    /// capped exponential backoff between them (RetryPolicy::BackoffSeconds,
    /// the schedule shape source-call retries use). With one endpoint,
    /// max_attempts <= 1 disables reconnection: the first transport error
    /// surfaces to the caller.
    Builder& Reconnect(const RetryPolicy& policy) {
      reconnect_ = policy;
      return *this;
    }
    /// Replaces the whole options struct (then refine with the setters).
    Builder& Options(const ClientOptions& options) {
      options_ = options;
      return *this;
    }
    Builder& Strategy(OptimizerStrategy strategy) {
      options_.strategy = strategy;
      return *this;
    }
    /// Fixed statistics mode; `std::nullopt` = session-learned (default).
    Builder& Statistics(std::optional<StatisticsMode> mode) {
      options_.statistics = mode;
      return *this;
    }
    Builder& Execution(const ExecOptions& execution) {
      options_.execution = execution;
      return *this;
    }
    /// Attach/detach the cross-query result cache (embedded mode).
    Builder& UseCache(bool use_cache) {
      options_.use_cache = use_cache;
      return *this;
    }

    /// Validates the configuration and builds the client. Embedded mode
    /// requires a catalog; connected mode dials the target's endpoints in
    /// order (TcpLink's endpoint rule) until one passes the HELLO
    /// handshake.
    Result<Client> Build();

   private:
    Target target_;
    int targets_set_ = 0;
    std::string client_id_ = "anon";
    ClientOptions options_;
    RetryPolicy reconnect_ = DefaultReconnectPolicy();
  };

  /// The default connected-mode reconnect schedule: 6 attempts, 10 ms
  /// doubling to a 250 ms cap — a dropped connection is usually back within
  /// a few hundred milliseconds, and a dead daemon fails in under a second.
  static RetryPolicy DefaultReconnectPolicy();

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Answers one fusion query (blocking). Thread-safe.
  Result<ClientAnswer> Query(const FusionQuery& query) {
    return Query(query, CallControls{});
  }
  Result<ClientAnswer> Query(const FusionQuery& query,
                             const CallControls& controls);
  Result<ClientAnswer> QuerySql(const std::string& sql) {
    return QuerySql(sql, CallControls{});
  }
  Result<ClientAnswer> QuerySql(const std::string& sql,
                                const CallControls& controls);

  /// As QuerySql, with the answer's `explain_lines` filled: the executed
  /// plan annotated per op. Embedded mode renders locally; connected mode
  /// sets `explain yes` on the SUBMIT (kUnsupported against a server that
  /// never advertised the `explain` feature).
  Result<ClientAnswer> QuerySqlExplained(const std::string& sql);

  /// The live STATS text exposition (obs/exposition.h). Connected mode
  /// round-trips the FUSIONQ/1 STATS verb (kUnsupported against a server
  /// that never advertised `stats`); embedded mode renders this process's
  /// metrics directly (no tenant table — tenants are a serving concept).
  Result<std::string> Stats();

  /// Drops every cached call result for the named source — the cache-
  /// coherence entry point a feed uses when a source changed upstream.
  /// Embedded mode invalidates the local session directly; connected mode
  /// sends the FUSIONQ/1 INVALIDATE verb (kUnsupported against a server
  /// that never advertised `sharding`), where a router fans it out to every
  /// shard. `version` stamps make replays idempotent (see the protocol
  /// docs); 0 = unconditional. Returns "applied" or "stale".
  Result<std::string> InvalidateSource(const std::string& source,
                                       uint64_t version = 0);

  /// True when this client speaks to a fusionqd instead of running locally.
  bool connected() const { return remote_ != nullptr; }
  /// Times this client re-dialed and re-handshook after losing its
  /// connection (0 in embedded mode and on a healthy network).
  size_t reconnects() const;
  /// The server name from the HELLO handshake (empty in embedded mode).
  const std::string& server() const;
  /// Feature tokens the server advertised on the latest HELLO (empty in
  /// embedded mode and against pre-feature servers).
  std::vector<std::string> server_features() const;

  /// The embedded session, for callers that need the full surface
  /// (ResetCache, InvalidateSource, health introspection). Null in
  /// connected mode.
  QuerySession* session() { return session_.get(); }
  const QuerySession* session() const { return session_.get(); }

 private:
  struct Remote {
    Remote(const std::vector<std::string>& endpoints,
           const std::string& client_id, const RetryPolicy& reconnect);

    std::mutex mutex;  // one request/response exchange at a time
    std::string client_id;
    std::string server;  // written under mutex by each HELLO
    /// The connection to the target's endpoints (guarded by mutex). Its
    /// negotiated features decide which optional fields (trace-id,
    /// request-id) and verbs (STATS, INVALIDATE, explain) are sent.
    TcpLink link;
  };

  Client() = default;

  Result<ClientAnswer> RemoteQuery(const std::string& sql,
                                   const CallControls& controls,
                                   bool explain = false);

  /// One request/response over the remote link (TcpLink::Exchange:
  /// transparent redial + re-HELLO, and a SUBMIT re-sent only under its
  /// ResendRule). Requires Remote::mutex held (callers hold it across
  /// building the request too, because a redial renegotiates the features
  /// the request depends on).
  Result<ClientResponse> RemoteExchangeLocked(const ClientRequest& request);

  std::unique_ptr<QuerySession> session_;  // embedded mode
  std::unique_ptr<Remote> remote_;         // connected mode
};

}  // namespace fusion

#endif  // FUSION_MEDIATOR_CLIENT_H_
