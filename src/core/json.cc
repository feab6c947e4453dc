#include "core/json.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace microscale::core
{

namespace
{

/**
 * How a number of the result document is bounded. Every number must
 * also be present, numeric and finite, and every string non-empty.
 * A bool field is always a Flag.
 */
enum Bound
{
    NonNeg,   ///< >= 0, the default
    Finite,   ///< any finite value
    Unit,     ///< within [0, 1]
    Flag,     ///< 0 or 1
    AtLeast1, ///< >= 1
};

template <class V>
void
describeLatency(V &v, const OpLatency &l)
{
    v.field("count", l.count);
    v.field("mean_ms", l.meanMs);
    v.field("p50_ms", l.p50Ms);
    v.field("p95_ms", l.p95Ms);
    v.field("p99_ms", l.p99Ms);
}

template <class V>
void
describePerf(V &v, const perf::PerfRow &p)
{
    v.field("cpus_busy", p.utilizationCpus);
    v.field("ipc", p.ipc);
    v.field("ghz", p.ghz);
    v.field("l3_mpki", p.l3Mpki);
    v.field("l3_miss_ratio", p.l3MissRatio, Unit);
    v.field("branch_mpki", p.branchMpki);
    v.field("icache_mpki", p.icacheMpki);
    v.field("kernel_share", p.kernelShare, Unit);
    v.field("smt_share", p.smtShare, Unit);
    v.field("cs_per_sec", p.csPerSec);
    v.field("migrations_per_sec", p.migrationsPerSec);
    v.field("ccx_migrations_per_sec", p.ccxMigrationsPerSec);
    v.field("mips", p.mips);
}

/**
 * The RunResult document, described once: every field in output order
 * with its key, value and bound. Writer prints it; Checker walks it
 * over a parsed document. A visitor provides
 *   field(key, value, bound = NonNeg)  a number, bool or string;
 *   object(key, body)                  a nested object body() fills;
 *   map(key, map, each)                an object with one each(name,
 *                                      value) per entry of the map.
 * Each gated block appears only when its summary is active, so runs
 * that never touch a layer keep their pre-layer bytes; the conditional
 * fields inside other blocks follow the same flags.
 */
template <class V>
void
describe(V &v, const RunResult &r)
{
    v.field("placement", placementName(r.plan.kind));
    v.field("throughput_rps", r.throughputRps);
    v.field("budget_cpus", r.budgetCpus);
    // Not bounded by the budget: the kernel charges a whole context
    // switch when the switch starts, so saturated points read up to
    // 1e-6 above 1.
    v.field("cpu_utilization", r.cpuUtilization);
    v.field("avg_freq_ghz", r.avgFreqGhz);
    v.field("events_processed", r.eventsProcessed);
    v.object("latency", [&] { describeLatency(v, r.latency); });
    v.map("per_op", r.perOp, [&](const std::string &op, const OpLatency &l) {
        v.object(op, [&] { describeLatency(v, l); });
    });
    v.map("services", r.servicePerf,
          [&](const std::string &svc, const perf::PerfRow &p) {
              v.object(svc, [&] { describePerf(v, p); });
          });
    v.object("total", [&] { describePerf(v, r.total); });
    v.object("sched", [&] {
        v.field("wakeups", r.sched.wakeups);
        v.field("context_switches", r.sched.contextSwitches);
        v.field("preemptions", r.sched.preemptions);
        v.field("migrations", r.sched.migrations);
        v.field("ccx_migrations", r.sched.ccxMigrations);
        v.field("balance_pulls", r.sched.balancePulls);
        v.field("new_idle_pulls", r.sched.newIdlePulls);
    });
    v.map("breakdown", r.breakdown, [&](const std::string &svc,
                                        const auto &ops) {
        v.map(svc, ops, [&](const std::string &op, const OpBreakdown &b) {
            v.object(op, [&] {
                v.field("count", b.count);
                v.field("service_time_mean_ms", b.serviceTimeMeanMs);
                v.field("queue_wait_mean_ms", b.queueWaitMeanMs);
                v.field("compute_mean_ms", b.computeMeanMs);
                v.field("stall_mean_ms", b.stallMeanMs);
                v.field("service_time_p99_ms", b.serviceTimeP99Ms);
                if (r.resilience.active) {
                    v.field("ok", b.okCount);
                    v.field("timeout", b.timeoutCount);
                    v.field("overload", b.overloadCount);
                    v.field("unavailable", b.unavailableCount);
                }
            });
        });
    });

    // Runs with a resilience policy, a fault script or degraded
    // fallbacks.
    if (r.resilience.active) {
        const ResilienceSummary &rs = r.resilience;
        v.object("resilience", [&] {
            v.field("goodput_rps", rs.goodputRps);
            v.field("error_rate", rs.errorRate, Unit);
            v.field("degraded_share", rs.degradedShare, Unit);
            v.field("ok", rs.okCount);
            v.field("timeout", rs.timeoutCount);
            v.field("overload", rs.overloadCount);
            v.field("unavailable", rs.unavailableCount);
            // Only overload-controlled runs shed with Rejected.
            if (r.overload.active)
                v.field("rejected", rs.rejectedCount);
            v.field("degraded", rs.degradedCount);
            v.field("retries", rs.retries);
            v.field("retries_denied", rs.retriesDenied);
            v.field("client_timeouts", rs.clientTimeouts);
            v.field("shed", rs.shed);
            v.field("deadline_drops", rs.deadlineDrops);
            v.field("breaker_opens", rs.breakerOpens);
        });
    }

    // Runs with any part of the overload layer.
    if (r.overload.active) {
        const OverloadSummary &ov = r.overload;
        v.object("overload", [&] {
            v.field("admission", ov.admission);
            v.field("codel", ov.codel);
            v.field("adaptive_lifo", ov.adaptiveLifo);
            v.field("criticality_aware", ov.criticalityAware);
            v.field("brownout", ov.brownout);
            v.field("shed_critical", ov.shedCritical);
            v.field("shed_normal", ov.shedNormal);
            v.field("shed_sheddable", ov.shedSheddable);
            v.field("codel_drops", ov.codelDrops);
            v.field("lifo_dequeues", ov.lifoDequeues);
            v.field("rejected_total", ov.rejectedTotal);
            v.field("limit_initial", ov.limitInitial);
            v.field("limit_min", ov.limitMin);
            v.field("limit_max", ov.limitMax);
            v.field("limit_final", ov.limitFinal);
            v.field("brownout_duty_cycle", ov.brownoutDutyCycle, Unit);
            v.field("dimmer_min", ov.dimmerMin, Unit);
            v.field("dimmer_final", ov.dimmerFinal, Unit);
            v.field("brownout_skips", ov.brownoutSkips);
        });
    }

    // Runs with a load schedule or an autoscaler.
    if (r.elastic.active) {
        const ElasticSummary &es = r.elastic;
        v.object("elastic", [&] {
            v.field("schedule", es.schedule);
            v.field("policy", es.policy);
            v.field("placer", es.placer);
            v.field("offered_mean_rps", es.offeredMeanRps);
            v.field("offered_peak_rps", es.offeredPeakRps);
            v.field("slo_p99_ms", es.sloP99Ms);
            v.field("slo_violation_seconds", es.sloViolationSeconds);
            v.field("core_seconds_granted", es.coreSecondsGranted);
            v.field("steady_state_cpus", es.steadyStateCpus);
            v.field("scale_out_lag_mean_ms", es.scaleOutLagMeanMs);
            v.field("scale_outs", es.scaleOuts);
            v.field("scale_ins", es.scaleIns);
            v.map("peak_replicas", es.peakReplicas,
                  [&](const std::string &svc, unsigned peak) {
                      v.field(svc, peak);
                  });
        });
    }

    // Traced runs.
    if (r.trace.active) {
        const TraceSummary &tr = r.trace;
        // Per-trace means in ms; with nothing analyzed everything
        // below is zero and the divisor is moot.
        const double toMs =
            tr.attribution.traces
                ? 1.0 / (static_cast<double>(tr.attribution.traces) *
                         1e6)
                : 0.0;
        v.object("trace", [&] {
            v.field("sample_rate", tr.sampleRate, Unit);
            v.field("roots_seen", tr.rootsSeen);
            v.field("traces_sampled", tr.tracesSampled);
            v.field("traces_analyzed", tr.tracesAnalyzed);
            v.field("spans", tr.spanCount);
            v.field("mean_e2e_ms", tr.attribution.e2eNs * toMs);
            v.field("unattributed_ms", tr.attribution.unattributedNs * toMs,
                    Finite);
            v.map("attribution", tr.attribution.services,
                  [&](const std::string &svc,
                      const trace::ServiceAttribution &a) {
                      v.object(svc, [&] {
                          v.field("queue_ms", a.queueNs * toMs);
                          v.field("compute_ms", a.computeNs * toMs);
                          v.field("stall_ms", a.stallNs * toMs);
                          v.field("fanout_wait_ms", a.fanoutNs * toMs);
                          v.field("retry_backoff_ms", a.backoffNs * toMs);
                          v.field("shed_ms", a.shedNs * toMs);
                          v.field("network_ms", a.networkNs * toMs);
                          // The cross-machine slice of network_ms, not
                          // an eighth component; cluster runs only.
                          if (r.scaleout.active)
                              v.field("fabric_ms", a.fabricNs * toMs);
                          v.field("total_ms", a.totalNs() * toMs);
                      });
                  });
        });
    }

    // Runs with an ejection policy, link faults or replica slowdowns.
    if (r.grayfail.active) {
        const GrayFailSummary &gf = r.grayfail;
        v.object("grayfail", [&] {
            v.field("ejection_enabled", gf.ejectionEnabled);
            v.field("ejections", gf.ejections);
            v.field("unejections", gf.unejections);
            v.field("ejections_denied", gf.ejectionsDenied);
            v.field("ejected_at_end", gf.ejectedAtEnd);
            v.field("packets_dropped", gf.packetsDropped);
            v.field("packets_duplicated", gf.packetsDuplicated);
            v.field("packets_blackholed", gf.packetsBlackholed);
            v.field("faults_applied", gf.faultsApplied);
            v.field("faults_skipped", gf.faultsSkipped);
        });
    }

    // Cluster runs.
    if (r.scaleout.active) {
        const ScaleoutSummary &so = r.scaleout;
        v.object("scaleout", [&] {
            v.field("nodes", so.nodes, AtLeast1);
            v.field("active_nodes_end", so.activeNodesEnd, AtLeast1);
            v.field("shards", so.shards);
            v.field("cache_nodes", so.cacheNodes);
            v.field("fabric_messages", so.fabricMessages);
            v.field("fabric_bytes", so.fabricBytes);
            v.field("fabric_share", so.fabricShare, Unit);
            v.field("cache_hits", so.cacheHits);
            v.field("cache_misses", so.cacheMisses);
            v.field("cache_invalidations", so.cacheInvalidations);
            v.field("cache_evictions", so.cacheEvictions);
            v.field("cache_hit_rate", so.cacheHitRate, Unit);
            v.field("shard_requests", so.shardRequests);
            v.field("shard_load_cv", so.shardLoadCv);
            v.field("nodes_provisioned", so.nodesProvisioned);
            v.field("warm_provisions", so.warmProvisions);
            v.field("cold_provisions", so.coldProvisions);
            v.field("provision_lag_mean_ms", so.provisionLagMeanMs);
        });
    }

    // Cluster runs with a replication factor above 1.
    if (r.replication.active) {
        const ReplicationSummary &rp = r.replication;
        v.object("replication", [&] {
            v.field("factor", rp.factor, AtLeast1);
            v.field("write_quorum", rp.writeQuorum, AtLeast1);
            v.field("read_quorum", rp.readQuorum, AtLeast1);
            v.field("quorum_writes", rp.quorumWrites);
            v.field("write_failures", rp.writeFailures);
            v.field("write_ack_p50_ms", rp.writeAckP50Ms);
            v.field("write_ack_p99_ms", rp.writeAckP99Ms);
            v.field("quorum_reads", rp.quorumReads);
            v.field("read_failures", rp.readFailures);
            v.field("read_repairs", rp.readRepairs);
            v.field("read_refetches", rp.readRefetches);
            v.field("read_p50_ms", rp.readP50Ms);
            v.field("read_p99_ms", rp.readP99Ms);
            v.field("hints_queued", rp.hintsQueued);
            v.field("hints_replayed", rp.hintsReplayed);
            v.field("hints_dropped", rp.hintsDropped);
            v.field("hint_depth_peak", rp.hintDepthPeak);
            v.field("rebalances_started", rp.rebalancesStarted);
            v.field("rebalances_completed", rp.rebalancesCompleted);
            v.field("rebalance_batches", rp.rebalanceBatches);
            v.field("rebalance_bytes", rp.rebalanceBytes);
            v.field("dual_reads", rp.dualReads);
            v.field("rebalance_ms_total", rp.rebalanceMsTotal);
            v.field("consistency_checked", rp.consistencyChecked);
            v.field("acked_writes", rp.ackedWrites);
            v.field("lost_acked_writes", rp.lostAckedWrites);
            v.field("stale_quorum_reads", rp.staleQuorumReads);
        });
    }

    // The deep-fan-out app runner; TeaStore runs never carry it.
    if (r.fanout.active) {
        const FanoutSummary &fo = r.fanout;
        v.object("fanout", [&] {
            v.field("app", fo.app);
            v.field("depth", fo.depth, AtLeast1);
            v.field("services", fo.services, AtLeast1);
            v.field("fan_width", fo.fanWidth);
            v.field("hedged", fo.hedged);
            v.field("hedge_delay_ms", fo.hedgeDelayMs);
            v.field("hedge_quantile", fo.hedgeQuantile, Unit);
            v.field("hedge_budget_ratio", fo.hedgeBudgetRatio);
            v.field("first_attempts", fo.firstAttempts);
            v.field("hedges_launched", fo.hedgesLaunched);
            v.field("hedge_wins", fo.hedgeWins);
            v.field("hedges_denied", fo.hedgesDenied);
            v.field("hedges_cancelled", fo.hedgesCancelled);
            v.field("hedge_share", fo.hedgeShare);
            v.field("p50_ms", fo.p50Ms);
            v.field("p99_ms", fo.p99Ms);
            v.field("amplification", fo.amplification);
        });
    }
}

/**
 * Prints the description with setprecision(10) in the default float
 * format: integers via <<, bools as 0/1, non-finite doubles as null
 * (JSON has no NaN/Inf literals), keys and strings unescaped.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    template <class T>
    void
    field(std::string_view k, const T &value, Bound = NonNeg)
    {
        key(k);
        if constexpr (std::is_same_v<T, bool>) {
            os_ << (value ? 1 : 0);
        } else if constexpr (std::is_floating_point_v<T>) {
            if (std::isfinite(value))
                os_ << value;
            else
                os_ << "null";
        } else if constexpr (std::is_arithmetic_v<T>) {
            os_ << value;
        } else {
            os_ << '"' << value << '"';
        }
    }

    template <class Body>
    void
    object(std::string_view k, Body &&body)
    {
        key(k);
        os_ << '{';
        first_ = true;
        body();
        os_ << '}';
        first_ = false;
    }

    template <class Map, class Each>
    void
    map(std::string_view k, const Map &m, Each &&each)
    {
        object(k, [&] {
            for (const auto &[name, value] : m)
                each(name, value);
        });
    }

  private:
    void
    key(std::string_view k)
    {
        if (!first_)
            os_ << ',';
        first_ = false;
        os_ << '"' << k << "\":";
    }

    std::ostream &os_;
    bool first_ = true;
};

std::string
formatNumber(double x)
{
    std::ostringstream os;
    os << std::setprecision(10) << x;
    return os.str();
}

/**
 * Walks the description over a parsed document and keeps the first
 * violation as "<block>.<key>: <what>". Map entries come from the
 * document, with default values the walk never reads.
 */
class Checker
{
  public:
    explicit Checker(const JsonValue &doc) : at_(&doc) {}

    std::string error;

    template <class T>
    void
    field(std::string_view k, const T &, Bound bound = NonNeg)
    {
        const JsonValue *v = member(k);
        if (!v)
            return;
        if constexpr (std::is_arithmetic_v<T>) {
            number(k, *v, std::is_same_v<T, bool> ? Flag : bound);
        } else if (!v->isString() || v->stringValue.empty()) {
            fail(k, "not a non-empty string");
        }
    }

    template <class Body>
    void
    object(std::string_view k, Body &&body)
    {
        const JsonValue *v = member(k);
        if (!v)
            return;
        if (!v->isObject())
            return fail(k, "not an object");
        const JsonValue *outer = at_;
        const std::size_t depth = path_.size();
        path_.append(k).push_back('.');
        at_ = v;
        body();
        at_ = outer;
        path_.resize(depth);
    }

    template <class Map, class Each>
    void
    map(std::string_view k, const Map &, Each &&each)
    {
        object(k, [&] {
            for (const auto &entry : at_->members)
                each(entry.first, typename Map::mapped_type{});
        });
    }

  private:
    const JsonValue *
    member(std::string_view k)
    {
        if (!error.empty())
            return nullptr;
        const JsonValue *v = at_->find(std::string(k));
        if (!v)
            fail(k, "missing");
        return v;
    }

    void
    number(std::string_view k, const JsonValue &v, Bound bound)
    {
        if (!v.isNumber())
            return fail(k, "not a number");
        const double x = v.numberValue;
        if (!std::isfinite(x))
            return fail(k, "not finite");
        const char *why = nullptr;
        if (bound == NonNeg && x < 0)
            why = " is negative";
        else if (bound == Unit && (x < 0 || x > 1))
            why = " is outside [0, 1]";
        else if (bound == Flag && x != 0 && x != 1)
            why = " is not 0 or 1";
        else if (bound == AtLeast1 && x < 1)
            why = " is below 1";
        if (why)
            fail(k, formatNumber(x) + why);
    }

    void
    fail(std::string_view k, const std::string &what)
    {
        error = path_;
        error.append(k).append(": ").append(what);
    }

    const JsonValue *at_;
    std::string path_;
};

/**
 * The relations between fields that per-field bounds cannot express.
 * Runs after the describe walk passed, so every key read is present
 * and numeric.
 */
std::string
checkRelations(const JsonValue &result)
{
    const auto n = [](const JsonValue &block, const char *key) {
        return block.at(key).numberValue;
    };
    if (const JsonValue *tr = result.find("trace")) {
        if (n(*tr, "traces_sampled") > n(*tr, "roots_seen"))
            return "trace.traces_sampled: exceeds roots_seen";
        if (n(*tr, "traces_analyzed") > n(*tr, "traces_sampled"))
            return "trace.traces_analyzed: exceeds traces_sampled";
        // The components of every service plus the residue partition
        // the mean end-to-end latency; the tolerance absorbs rounding.
        if (n(*tr, "traces_analyzed") > 0) {
            double sum = n(*tr, "unattributed_ms");
            for (const auto &entry : tr->at("attribution").members) {
                for (const char *key :
                     {"queue_ms", "compute_ms", "stall_ms", "fanout_wait_ms",
                      "retry_backoff_ms", "shed_ms", "network_ms"})
                    sum += n(entry.second, key);
            }
            const double e2e = n(*tr, "mean_e2e_ms");
            if (std::abs(sum - e2e) > std::max(1e-6, 1e-3 * e2e))
                return "trace.attribution: sums to " + formatNumber(sum) +
                       " ms but mean_e2e_ms is " + formatNumber(e2e);
        }
    }
    if (const JsonValue *gf = result.find("grayfail")) {
        if (n(*gf, "ejected_at_end") > n(*gf, "ejections"))
            return "grayfail.ejected_at_end: exceeds ejections";
    }
    if (const JsonValue *so = result.find("scaleout")) {
        if (n(*so, "active_nodes_end") > n(*so, "nodes"))
            return "scaleout.active_nodes_end: exceeds nodes";
        // Warm and cold provisions partition the provision count.
        if (n(*so, "warm_provisions") + n(*so, "cold_provisions") !=
            n(*so, "nodes_provisioned"))
            return "scaleout.nodes_provisioned: differs from "
                   "warm_provisions + cold_provisions";
    }
    if (const JsonValue *rp = result.find("replication")) {
        const double factor = n(*rp, "factor");
        if (factor < 2)
            return "replication.factor: below 2";
        for (const char *key : {"write_quorum", "read_quorum"}) {
            if (n(*rp, key) > factor)
                return std::string("replication.") + key +
                       ": exceeds factor";
        }
        if (n(*rp, "hints_replayed") > n(*rp, "hints_queued"))
            return "replication.hints_replayed: exceeds hints_queued";
        if (n(*rp, "rebalances_completed") > n(*rp, "rebalances_started"))
            return "replication.rebalances_completed: exceeds "
                   "rebalances_started";
        // The data tier's invariants: no acknowledged write lost, no
        // stale quorum read served.
        for (const char *key : {"lost_acked_writes", "stale_quorum_reads"}) {
            if (n(*rp, key) != 0)
                return std::string("replication.") + key + ": not zero";
        }
    }
    if (const JsonValue *fo = result.find("fanout")) {
        const double launched = n(*fo, "hedges_launched");
        if (n(*fo, "hedged") == 0 && launched != 0)
            return "fanout.hedges_launched: hedges on an unhedged point";
        for (const char *key : {"hedge_wins", "hedges_cancelled"}) {
            if (n(*fo, key) > launched)
                return std::string("fanout.") + key +
                       ": exceeds hedges_launched";
        }
        const double first = n(*fo, "first_attempts");
        const double share = first > 0 ? launched / first : 0.0;
        if (std::abs(n(*fo, "hedge_share") - share) > 1e-6 * share)
            return "fanout.hedge_share: differs from hedges_launched / "
                   "first_attempts = " +
                   formatNumber(share);
    }
    return "";
}

} // namespace

void
writeJson(std::ostream &os, const RunResult &result)
{
    // The precision stays set on `os`, as callers have always seen.
    os << std::setprecision(10) << '{';
    Writer w(os);
    describe(w, result);
    os << "}\n";
}

std::string
toJson(const RunResult &result)
{
    std::ostringstream os;
    writeJson(os, result);
    return os.str();
}

std::string
checkResultJson(const JsonValue &result)
{
    if (!result.isObject())
        return "result is not an object";
    // The document decides which blocks it has; a conditional field is
    // then required exactly when the writer would have written it.
    RunResult shape;
    shape.resilience.active = result.find("resilience") != nullptr;
    shape.overload.active = result.find("overload") != nullptr;
    shape.elastic.active = result.find("elastic") != nullptr;
    shape.trace.active = result.find("trace") != nullptr;
    shape.grayfail.active = result.find("grayfail") != nullptr;
    shape.scaleout.active = result.find("scaleout") != nullptr;
    shape.replication.active = result.find("replication") != nullptr;
    shape.fanout.active = result.find("fanout") != nullptr;
    Checker checker(result);
    describe(checker, shape);
    return checker.error.empty() ? checkRelations(result) : checker.error;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw std::out_of_range("no JSON member '" + key + "'");
}

namespace
{

/** Recursive-descent parser over the full supported grammar. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("bad \\u escape");
                const unsigned code = static_cast<unsigned>(std::strtoul(
                    std::string(text_.substr(pos_, 4)).c_str(), nullptr,
                    16));
                pos_ += 4;
                // Only the codepoints jsonEscape emits (< 0x80).
                out += static_cast<char>(code & 0x7f);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.numberValue =
            std::strtod(std::string(text_.substr(start, pos_ - start))
                            .c_str(),
                        nullptr);
        return v;
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        JsonValue v;
        switch (c) {
          case '{': {
            ++pos_;
            v.kind = JsonValue::Kind::Object;
            if (consume('}'))
                return v;
            do {
                std::string key = (skipSpace(), parseString());
                expect(':');
                v.members.emplace_back(std::move(key), parseValue());
            } while (consume(','));
            expect('}');
            return v;
          }
          case '[': {
            ++pos_;
            v.kind = JsonValue::Kind::Array;
            if (consume(']'))
                return v;
            do {
                v.elements.push_back(parseValue());
            } while (consume(','));
            expect(']');
            return v;
          }
          case '"':
            v.kind = JsonValue::Kind::String;
            v.stringValue = parseString();
            return v;
          case 't':
            literal("true");
            v.kind = JsonValue::Kind::Bool;
            v.boolValue = true;
            return v;
          case 'f':
            literal("false");
            v.kind = JsonValue::Kind::Bool;
            v.boolValue = false;
            return v;
          case 'n':
            literal("null");
            v.kind = JsonValue::Kind::Null;
            return v;
          default:
            return parseNumber();
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parse();
}

} // namespace microscale::core
