/**
 * @file
 * Socialnet: a DeathStarBench-style social-network application graph.
 *
 * Where TeaStore is a shallow six-service graph (the paper's subject),
 * socialnet models the deep fan-out topology of Gan et al.'s
 * social-network benchmark: 21 services, call chains up to five levels
 * deep, and wide parallel fan-out on the read path. One slow leg at
 * the bottom of the tree gates the whole page — the regime where
 * tail-latency amplification and hedged requests matter.
 *
 *   client -> frontend -> api-gateway
 *     readHome:    -> home-timeline -> {social-graph -> graph-db,
 *                                       timeline-cache -> timeline-db}
 *                                   -> post-storage x fanWidth
 *                                        -> post-cache | post-db
 *     composePost: -> compose-post -> {text -> {url-shorten,
 *                                               user-mention},
 *                                      unique-id, media -> media-store,
 *                                      user -> user-db}
 *                                  -> {post-storage -> post-cache+post-db,
 *                                      write-home-timeline
 *                                        -> {social-graph -> graph-db,
 *                                            timeline-cache -> timeline-db}}
 *     readUser:    -> user-timeline -> {user -> user-db,
 *                                       timeline-cache -> timeline-db}
 *                                   -> post-storage x fanWidth
 *     follow:      -> social-graph -> graph-db
 *
 * The `depth` knob truncates the graph: a handler at depth d issues
 * its downstream calls only while d < depth, absorbing the pruned
 * subtree's CPU budget locally. Total work stays roughly constant
 * across depths; what grows with depth is the number of
 * synchronization barriers and straggler-exposed legs.
 *
 * The module is deliberately free of src/svc and src/trace coupling
 * beyond the public Mesh/HandlerCtx API: mesh, overload, autoscaling
 * and tracing stay app-agnostic by construction.
 */

#ifndef MICROSCALE_APPS_SOCIALNET_APP_HH
#define MICROSCALE_APPS_SOCIALNET_APP_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "svc/mesh.hh"

namespace microscale::socialnet
{

/** The user-facing frontend operations. */
enum class OpType : unsigned
{
    ReadHome = 0,
    ComposePost,
    ReadUser,
    Follow,
};

/** Number of OpType values. */
constexpr unsigned kNumOps = 4;

/** Frontend op name for an OpType (also the handler key). */
const char *opName(OpType op);

/** All op types in declaration order. */
std::array<OpType, kNumOps> allOps();

/** Replica/worker sizing for one service tier. */
struct TierConfig
{
    unsigned replicas = 1;
    unsigned workers = 8;
};

/** Application parameters. */
struct AppParams
{
    /**
     * Maximum call-chain depth (1..5). 5 = the full graph; smaller
     * values truncate: services at the cut absorb their pruned
     * subtree's CPU budget locally.
     */
    unsigned depth = 5;
    /** Parallel post-storage mget legs per timeline read. */
    unsigned fanWidth = 4;
    /** Modeled user population (entity id space). */
    unsigned users = 1000;
    /** Timeline/post cache miss probability (miss = extra DB hop). */
    double cacheMissRatio = 0.1;
    /** Global multiplier on all service work budgets (calibration). */
    double workScale = 1.0;

    /** Sizing by tier (all services of a tier share it). */
    TierConfig frontend{2, 16};
    TierConfig gateway{2, 16};
    TierConfig logic{2, 8};
    /** post-storage: the straggler-exposed wide-fan-out tier. */
    TierConfig storage{3, 8};
    TierConfig leaf{2, 8};
};

/** Canonical service names. */
namespace names
{
inline constexpr const char *kFrontend = "frontend";
inline constexpr const char *kApiGateway = "api-gateway";
inline constexpr const char *kHomeTimeline = "home-timeline";
inline constexpr const char *kUserTimeline = "user-timeline";
inline constexpr const char *kComposePost = "compose-post";
inline constexpr const char *kWriteHomeTimeline = "write-home-timeline";
inline constexpr const char *kText = "text";
inline constexpr const char *kUrlShorten = "url-shorten";
inline constexpr const char *kUserMention = "user-mention";
inline constexpr const char *kUniqueId = "unique-id";
inline constexpr const char *kMedia = "media";
inline constexpr const char *kMediaStore = "media-store";
inline constexpr const char *kUser = "user";
inline constexpr const char *kUserDb = "user-db";
inline constexpr const char *kSocialGraph = "social-graph";
inline constexpr const char *kGraphDb = "graph-db";
inline constexpr const char *kPostStorage = "post-storage";
inline constexpr const char *kPostCache = "post-cache";
inline constexpr const char *kPostDb = "post-db";
inline constexpr const char *kTimelineCache = "timeline-cache";
inline constexpr const char *kTimelineDb = "timeline-db";
} // namespace names

/**
 * Per-edge criticality rules for the graph: the compose/write path is
 * Critical (user-visible data loss if shed), timeline reads Normal,
 * and media handling Sheddable (a post without its image still
 * renders). Consumed by OverloadConfig::rules when the overload layer
 * is criticality-aware.
 */
std::vector<svc::CriticalityRule> criticalityRules();

/**
 * The assembled application. Construction registers all services and
 * handlers with the mesh. Stateless beyond its parameters: no
 * background activity, so start()/stop() are trivial.
 */
class App
{
  public:
    App(svc::Mesh &mesh, AppParams params, std::uint64_t seed);

    App(const App &) = delete;
    App &operator=(const App &) = delete;

    svc::Mesh &mesh() { return mesh_; }
    const AppParams &params() const { return params_; }

    /** No background activity; present for runner symmetry. */
    void start() {}
    void stop() {}

    /** All services in registration order. */
    const std::vector<svc::Service *> &services() const
    {
        return services_;
    }

    /** Number of services in the graph. */
    unsigned serviceCount() const
    {
        return static_cast<unsigned>(services_.size());
    }

    /** Sample an op from the mix (readHome-heavy read/write blend). */
    OpType sampleOp(Rng &rng) const;

    /**
     * Build a request payload for a frontend op, sampling entity ids
     * with the supplied RNG (the load generator's stream).
     */
    svc::Payload sampleRequest(OpType op, Rng &rng) const;

    /** Scale a nominal instruction budget by params().workScale. */
    double scaled(double instructions) const
    {
        return instructions * params_.workScale;
    }

  private:
    /** True when handlers at `at` may call one level deeper. */
    bool reaches(unsigned at) const { return params_.depth > at; }

    void installFrontend();
    void installApiGateway();
    void installTimelines();
    void installCompose();
    void installSocialGraph();
    void installStorage();
    void installLeaves();

    svc::Mesh &mesh_;
    AppParams params_;

    std::vector<svc::Service *> services_;
};

} // namespace microscale::socialnet

#endif // MICROSCALE_APPS_SOCIALNET_APP_HH
