/**
 * @file
 * App: the assembled TeaStore application model.
 *
 * Six services wired through a Mesh:
 *
 *   client -> WebUI -> Auth --------> Persistence -> Store (in-memory DB)
 *                   -> Persistence /
 *                   -> Recommender
 *                   -> ImageProvider
 *   all services -> Registry (heartbeats)
 *
 * The WebUI exposes the user-facing operations of the browse profile
 * (home, login, category, product, addToCart, checkout, profile); the
 * other services expose internal RPCs.
 */

#ifndef MICROSCALE_TEASTORE_APP_HH
#define MICROSCALE_TEASTORE_APP_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "db/store.hh"
#include "sim/simulation.hh"
#include "svc/mesh.hh"

namespace microscale::teastore
{

/** The user-facing WebUI operations of the browse profile. */
enum class OpType : unsigned
{
    Home = 0,
    Login,
    Category,
    Product,
    AddToCart,
    Checkout,
    Profile,
};

/** Number of OpType values. */
constexpr unsigned kNumOps = 7;

/** WebUI op name for an OpType (also the handler key). */
const char *opName(OpType op);

/** All op types in declaration order. */
std::array<OpType, kNumOps> allOps();

/** Replica/worker sizing for one service. */
struct ServiceConfig
{
    unsigned replicas = 1;
    unsigned workers = 16;
};

/** Application parameters. */
struct AppParams
{
    db::StoreParams store;

    ServiceConfig webui{1, 24};
    ServiceConfig auth{1, 16};
    ServiceConfig persistence{1, 24};
    ServiceConfig recommender{1, 12};
    ServiceConfig image{1, 24};
    ServiceConfig registry{1, 2};

    /** Global multiplier on all service work budgets (calibration). */
    double workScale = 1.0;

    /** Products per category page. */
    unsigned pageSize = 20;

    /** Image cache hit probability for previews/full images. */
    double imageCacheHitRatio = 0.88;

    /** Emit per-service heartbeats to the registry. */
    bool heartbeats = true;
    Tick heartbeatPeriod = kSecond;

    /**
     * Graceful degradation (mirrors real TeaStore): when a
     * Recommender or ImageProvider call fails, serve the page without
     * that content (response marked degraded) instead of failing it.
     * Auth/Persistence failures always fail the page.
     */
    bool degradedFallbacks = false;
};

/**
 * Hook through which the cluster layer (src/cluster) reroutes the
 * stateful data paths: Persistence queries and full-image cache misses
 * can be redirected through a sharded store behind a distributed cache
 * tier instead of executing locally. Each hook returns true when the
 * backend took ownership of the request (the handler must return
 * without touching it further) and false to fall through to the local
 * single-machine path. With no backend installed (the default) the
 * hooks are never consulted and behavior is byte-identical.
 */
class ScaleoutBackend
{
  public:
    virtual ~ScaleoutBackend() = default;

    /** A Persistence data op ("categories", ..., "placeOrder"). */
    virtual bool persistenceOp(svc::HandlerCtx &ctx,
                               const std::string &op) = 0;

    /** A full-image cache miss for `product` of `bytes` source size. */
    virtual bool imageMiss(svc::HandlerCtx &ctx, std::uint64_t product,
                           std::uint32_t bytes) = 0;
};

/** Canonical service names. */
namespace names
{
inline constexpr const char *kWebui = "webui";
inline constexpr const char *kAuth = "auth";
inline constexpr const char *kPersistence = "persistence";
inline constexpr const char *kRecommender = "recommender";
inline constexpr const char *kImage = "image";
inline constexpr const char *kRegistry = "registry";
} // namespace names

/**
 * The assembled application. Construction registers all services and
 * handlers with the mesh; start() begins background heartbeats.
 */
class App
{
  public:
    App(svc::Mesh &mesh, AppParams params, std::uint64_t seed);

    App(const App &) = delete;
    App &operator=(const App &) = delete;

    svc::Mesh &mesh() { return mesh_; }
    const AppParams &params() const { return params_; }
    db::Store &store() { return store_; }
    const db::Store &store() const { return store_; }
    Rng &rng() { return rng_; }

    svc::Service &webui() { return *webui_; }
    svc::Service &auth() { return *auth_; }
    svc::Service &persistence() { return *persistence_; }
    svc::Service &recommender() { return *recommender_; }
    svc::Service &image() { return *image_; }
    svc::Service &registry() { return *registry_; }

    /** The five worker services + registry, in canonical order. */
    std::vector<svc::Service *> services() const;

    /** Start background activity (heartbeats). Idempotent. */
    void start();
    /** Stop background activity. */
    void stop();

    /**
     * Attach a brownout controller (nullptr detaches). While attached
     * and dimming, WebUI handlers skip the optional Recommender and
     * ImageProvider legs of a page as a unit (the page renders
     * degraded without issuing those calls), shedding downstream work
     * before queues fill. Critical legs (Auth, Persistence) always
     * run.
     */
    void setBrownout(svc::BrownoutController *controller)
    {
        brownout_ = controller;
    }

    /**
     * Install (or remove, with nullptr) the cluster data-path backend.
     * Must be set before traffic starts; the backend must outlive it.
     */
    void setScaleoutBackend(ScaleoutBackend *backend)
    {
        scaleout_ = backend;
    }

    ScaleoutBackend *scaleoutBackend() const { return scaleout_; }

    /**
     * Install the seven Persistence data-op handlers (categories,
     * products, product, userByName, user, ordersOfUser, placeOrder)
     * on `svc`, executing against this app's store. With `direct` the
     * handlers always run locally (the cluster layer installs them on
     * shard services); without it they consult the ScaleoutBackend
     * first — that is how the app's own Persistence service is built.
     */
    void installDataOps(svc::Service &svc, bool direct);

    /**
     * Install the shard-side full-image fetch op ("imgFetch") on
     * `svc`: the rescale-on-miss work the ImageProvider would have
     * done locally, executed where the image bytes live.
     */
    void installImageFetchOp(svc::Service &svc);

    /**
     * Build a request payload for a WebUI op, sampling entity ids from
     * the store with the supplied RNG (the load generator's stream).
     */
    svc::Payload sampleRequest(OpType op, Rng &rng) const;

    /** Scale a nominal instruction budget by params().workScale. */
    double scaled(double instructions) const
    {
        return instructions * params_.workScale;
    }

  private:
    /** One dimmer decision per page (gates all its optional legs). */
    bool brownoutDegrades();

    void installWebui();
    void installAuth();
    void installPersistence();
    void installRecommender();
    void installImage();
    void installRegistry();

    svc::Mesh &mesh_;
    AppParams params_;
    db::Store store_;
    Rng rng_;

    svc::Service *webui_ = nullptr;
    svc::Service *auth_ = nullptr;
    svc::Service *persistence_ = nullptr;
    svc::Service *recommender_ = nullptr;
    svc::Service *image_ = nullptr;
    svc::Service *registry_ = nullptr;

    std::vector<sim::PeriodicEvent> heartbeats_;
    bool started_ = false;
    svc::BrownoutController *brownout_ = nullptr;
    ScaleoutBackend *scaleout_ = nullptr;
};

} // namespace microscale::teastore

#endif // MICROSCALE_TEASTORE_APP_HH
