#include "apps/socialnet/app.hh"

#include <string>
#include <vector>

#include "base/logging.hh"

namespace microscale::socialnet
{

namespace
{

// Nominal instruction budgets (before AppParams::workScale),
// calibrated to the same latency scale as the TeaStore model: a full
// timeline read costs a few ms of CPU across the chain, with the bulk
// in the orchestrators and the storage fan-out.

// Frontend page assembly / api-gateway auth + routing.
constexpr double kFrontendRender = 1.8e6;
constexpr double kGatewayWork = 0.5e6;

// Orchestrators.
constexpr double kTimelineMerge = 1.2e6;
constexpr double kComposeLogic = 1.0e6;
constexpr double kWriteFanout = 0.4e6;

// Mid-tier services.
constexpr double kGraphLogic = 0.4e6;
constexpr double kCacheLogic = 0.12e6;
constexpr double kStorageMget = 0.5e6;
constexpr double kStoragePut = 0.6e6;
constexpr double kTextProcess = 0.8e6;
constexpr double kUniqueId = 0.08e6;
constexpr double kMediaProcess = 1.5e6;
constexpr double kUserLogic = 0.3e6;

// Leaves.
constexpr double kUrlShorten = 0.25e6;
constexpr double kUserMention = 0.3e6;
constexpr double kCacheGet = 0.12e6;
constexpr double kCachePut = 0.15e6;
constexpr double kDbGet = 0.7e6;
constexpr double kDbPut = 0.9e6;
constexpr double kMediaStorePut = 1.2e6;

// Payload sizes.
constexpr std::uint32_t kSmallReq = 400;
constexpr std::uint32_t kComposeReq = 2 * 1024;
constexpr std::uint32_t kTimelineBytes = 20 * 1024;
constexpr std::uint32_t kPostBytes = 2 * 1024;
constexpr std::uint32_t kAckBytes = 256;

// Work profiles, following the paper's characterization of
// microservice code (low IPC, big instruction footprints, large
// kernel-mode share): the same qualitative families as TeaStore's,
// re-weighted for this graph's tiers.

const cpu::WorkProfile &
frontendProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-frontend";
        q.ipcBase = 0.75;
        q.branchMpki = 7.0;
        q.icacheMpki = 18.0;
        q.l3Apki = 3.5;
        q.wssBytes = 8.0 * 1024 * 1024;
        q.smtYield = 0.68;
        q.kernelShare = 0.30;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
gatewayProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-gateway";
        q.ipcBase = 0.90;
        q.branchMpki = 5.0;
        q.icacheMpki = 14.0;
        q.l3Apki = 2.0;
        q.wssBytes = 2.0 * 1024 * 1024;
        q.smtYield = 0.65;
        q.kernelShare = 0.60;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
logicProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-logic";
        q.ipcBase = 1.00;
        q.branchMpki = 5.0;
        q.icacheMpki = 12.0;
        q.l3Apki = 2.5;
        q.wssBytes = 4.0 * 1024 * 1024;
        q.smtYield = 0.62;
        q.kernelShare = 0.20;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
cacheProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-cache";
        q.ipcBase = 1.20;
        q.branchMpki = 3.0;
        q.icacheMpki = 6.0;
        q.l3Apki = 4.0;
        q.wssBytes = 16.0 * 1024 * 1024;
        q.smtYield = 0.72;
        q.kernelShare = 0.50;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
storageProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-storage";
        q.ipcBase = 0.85;
        q.branchMpki = 6.0;
        q.icacheMpki = 12.0;
        q.l3Apki = 5.5;
        q.wssBytes = 12.0 * 1024 * 1024;
        q.smtYield = 0.70;
        q.kernelShare = 0.30;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
dbProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-db";
        q.ipcBase = 0.80;
        q.branchMpki = 6.5;
        q.icacheMpki = 10.0;
        q.l3Apki = 6.5;
        q.wssBytes = 20.0 * 1024 * 1024;
        q.smtYield = 0.72;
        q.kernelShare = 0.25;
        return q;
    }();
    return p;
}

const cpu::WorkProfile &
mediaProfile()
{
    static const cpu::WorkProfile p = [] {
        cpu::WorkProfile q;
        q.name = "sn-media";
        q.ipcBase = 1.35;
        q.branchMpki = 2.0;
        q.icacheMpki = 3.0;
        q.l3Apki = 3.0;
        q.wssBytes = 6.0 * 1024 * 1024;
        q.smtYield = 0.55;
        q.kernelShare = 0.10;
        return q;
    }();
    return p;
}

svc::Payload
small(std::uint64_t arg0)
{
    svc::Payload p;
    p.bytes = kSmallReq;
    p.arg0 = arg0;
    return p;
}

/**
 * Run an absorbed subtree budget as a chain of leaf-sized compute
 * draws. Truncated depths replace downstream services with local
 * work; a single compute over the whole budget would take one
 * lognormal draw (computeCv on the full amount) and give the shallow
 * graphs a far wider tail than the sequential sum of per-service
 * draws they stand in for, skewing depth sweeps.
 */
void
absorbCompute(svc::HandlerCtx &ctx, double remaining,
              std::function<void()> done)
{
    constexpr double kAbsorbChunk = 0.6e6;
    const double step = std::min(remaining, kAbsorbChunk);
    ctx.compute(step, [&ctx, remaining, step,
                       done = std::move(done)]() mutable {
        if (remaining - step <= 0.0) {
            done();
            return;
        }
        absorbCompute(ctx, remaining - step, std::move(done));
    });
}

} // namespace

const char *
opName(OpType op)
{
    switch (op) {
      case OpType::ReadHome:
        return "readHome";
      case OpType::ComposePost:
        return "composePost";
      case OpType::ReadUser:
        return "readUser";
      case OpType::Follow:
        return "follow";
    }
    MS_PANIC("invalid OpType");
}

std::array<OpType, kNumOps>
allOps()
{
    return {OpType::ReadHome, OpType::ComposePost, OpType::ReadUser,
            OpType::Follow};
}

std::vector<svc::CriticalityRule>
criticalityRules()
{
    using svc::Criticality;
    return {
        {names::kComposePost, "*", Criticality::Critical},
        {names::kWriteHomeTimeline, "*", Criticality::Critical},
        {names::kPostStorage, "put", Criticality::Critical},
        {names::kSocialGraph, "follow", Criticality::Critical},
        {names::kMedia, "*", Criticality::Sheddable},
        {names::kMediaStore, "*", Criticality::Sheddable},
    };
}

App::App(svc::Mesh &mesh, AppParams params, std::uint64_t seed)
    : mesh_(mesh), params_(params)
{
    (void)seed;
    if (params_.depth < 1 || params_.depth > 5)
        fatal("socialnet depth must be in 1..5, got ", params_.depth);
    if (params_.fanWidth < 1)
        fatal("socialnet fanWidth must be >= 1");

    auto make = [&](const char *name, const cpu::WorkProfile &profile,
                    const TierConfig &cfg) {
        svc::ServiceParams sp;
        sp.name = name;
        sp.profile = profile;
        sp.replicas = cfg.replicas;
        sp.workersPerReplica = cfg.workers;
        services_.push_back(mesh_.createService(sp));
        return services_.back();
    };

    make(names::kFrontend, frontendProfile(), params_.frontend);
    make(names::kApiGateway, gatewayProfile(), params_.gateway);
    make(names::kHomeTimeline, logicProfile(), params_.logic);
    make(names::kUserTimeline, logicProfile(), params_.logic);
    make(names::kComposePost, logicProfile(), params_.logic);
    make(names::kWriteHomeTimeline, logicProfile(), params_.logic);
    make(names::kText, logicProfile(), params_.logic);
    make(names::kUniqueId, logicProfile(), params_.logic);
    make(names::kMedia, mediaProfile(), params_.logic);
    make(names::kUser, logicProfile(), params_.logic);
    make(names::kSocialGraph, logicProfile(), params_.logic);
    make(names::kPostStorage, storageProfile(), params_.storage);
    make(names::kUrlShorten, logicProfile(), params_.leaf);
    make(names::kUserMention, logicProfile(), params_.leaf);
    make(names::kMediaStore, mediaProfile(), params_.leaf);
    make(names::kUserDb, dbProfile(), params_.leaf);
    make(names::kGraphDb, dbProfile(), params_.leaf);
    make(names::kPostCache, cacheProfile(), params_.leaf);
    make(names::kPostDb, dbProfile(), params_.leaf);
    make(names::kTimelineCache, cacheProfile(), params_.leaf);
    make(names::kTimelineDb, dbProfile(), params_.leaf);

    installFrontend();
    installApiGateway();
    installTimelines();
    installCompose();
    installSocialGraph();
    installStorage();
    installLeaves();
}

OpType
App::sampleOp(Rng &rng) const
{
    static const std::vector<double> weights = {60, 25, 10, 5};
    return allOps()[rng.weightedIndex(weights)];
}

svc::Payload
App::sampleRequest(OpType op, Rng &rng) const
{
    svc::Payload p;
    p.bytes = op == OpType::ComposePost ? kComposeReq : kSmallReq;
    p.arg0 = rng.uniformInt(1, params_.users);
    if (op == OpType::Follow)
        p.arg1 = rng.uniformInt(1, params_.users);
    return p;
}

void
App::installFrontend()
{
    using svc::HandlerCtx;
    using svc::Payload;
    svc::Service &fe = mesh_.service(names::kFrontend);

    // Per-op absorbed budgets when the graph is cut at depth 1: the
    // frontend performs a coarse approximation of the whole
    // downstream tree locally, keeping total work roughly flat so
    // depth sweeps isolate the fan-out synchronization effect.
    const double read_tree =
        kGatewayWork + kTimelineMerge + kGraphLogic + kDbGet +
        kCacheLogic + kCacheGet +
        static_cast<double>(params_.fanWidth) *
            (kStorageMget + kCacheGet + params_.cacheMissRatio * kDbGet);
    const double compose_tree =
        kGatewayWork + kComposeLogic + kTextProcess + kUrlShorten +
        kUserMention + kUniqueId + kMediaProcess + kMediaStorePut +
        kUserLogic + kDbGet + kStoragePut + kCachePut + kDbPut +
        kWriteFanout + kGraphLogic + kDbGet + kCacheLogic + kDbPut;
    const double follow_tree = kGatewayWork + kGraphLogic + kDbPut;

    auto page = [this, &fe](const char *op, const char *gw_op,
                            double absorbed, std::uint32_t bytes) {
        fe.addOp(op, [this, gw_op, absorbed, bytes](HandlerCtx &ctx) {
            if (!reaches(1)) {
                ctx.compute(scaled(kFrontendRender),
                            [this, &ctx, absorbed, bytes] {
                                absorbCompute(ctx, scaled(absorbed),
                                              [&ctx, bytes] {
                                                  ctx.response().bytes =
                                                      bytes;
                                                  ctx.done();
                                              });
                            });
                return;
            }
            Payload req = ctx.request();
            ctx.call(names::kApiGateway, gw_op, req,
                     [this, &ctx, bytes](const Payload &) {
                         ctx.compute(scaled(kFrontendRender),
                                     [&ctx, bytes] {
                                         ctx.response().bytes = bytes;
                                         ctx.done();
                                     });
                     });
        });
    };

    page("readHome", "homeTimeline", read_tree, kTimelineBytes);
    page("composePost", "composePost", compose_tree, kAckBytes);
    page("readUser", "userTimeline", read_tree, kTimelineBytes);
    page("follow", "follow", follow_tree, kAckBytes);
}

void
App::installApiGateway()
{
    using svc::HandlerCtx;
    using svc::Payload;
    svc::Service &gw = mesh_.service(names::kApiGateway);

    const double read_tree =
        kTimelineMerge + kGraphLogic + kDbGet + kCacheLogic + kCacheGet +
        static_cast<double>(params_.fanWidth) *
            (kStorageMget + kCacheGet + params_.cacheMissRatio * kDbGet);
    const double compose_tree =
        kComposeLogic + kTextProcess + kUrlShorten + kUserMention +
        kUniqueId + kMediaProcess + kMediaStorePut + kUserLogic + kDbGet +
        kStoragePut + kCachePut + kDbPut + kWriteFanout + kGraphLogic +
        kDbGet + kCacheLogic + kDbPut;
    const double follow_tree = kGraphLogic + kDbPut;

    auto route = [this, &gw](const char *op, const char *target,
                             const char *target_op, double absorbed,
                             std::uint32_t bytes) {
        gw.addOp(op, [this, target, target_op, absorbed,
                      bytes](HandlerCtx &ctx) {
            Payload req = ctx.request();
            ctx.compute(
                scaled(kGatewayWork),
                [this, &ctx, target, target_op, absorbed, bytes, req] {
                    if (!reaches(2)) {
                        absorbCompute(ctx, scaled(absorbed),
                                      [&ctx, bytes] {
                                          ctx.response().bytes = bytes;
                                          ctx.done();
                                      });
                        return;
                    }
                    ctx.call(target, target_op, req,
                             [&ctx, bytes](const Payload &) {
                                 ctx.response().bytes = bytes;
                                 ctx.done();
                             });
                });
        });
    };

    route("homeTimeline", names::kHomeTimeline, "read", read_tree,
          kTimelineBytes);
    route("composePost", names::kComposePost, "compose", compose_tree,
          kAckBytes);
    route("userTimeline", names::kUserTimeline, "read", read_tree,
          kTimelineBytes);
    route("follow", names::kSocialGraph, "follow", follow_tree,
          kAckBytes);
}

void
App::installTimelines()
{
    using svc::HandlerCtx;
    using svc::Payload;

    const double subtree =
        kGraphLogic + kDbGet + kCacheLogic + kCacheGet +
        static_cast<double>(params_.fanWidth) *
            (kStorageMget + kCacheGet + params_.cacheMissRatio * kDbGet);

    // Both timelines share the same shape: resolve the id set (graph
    // or user profile + cache), then mget posts fanWidth-wide from
    // post-storage — the barrier where one slow leg gates the page.
    auto timeline = [this, subtree](const char *svc_name,
                                    const char *pre_service,
                                    const char *pre_op) {
        mesh_.service(svc_name)
            .addOp("read", [this, subtree, pre_service,
                            pre_op](HandlerCtx &ctx) {
                if (!reaches(3)) {
                    ctx.compute(scaled(kTimelineMerge),
                                [this, &ctx, subtree] {
                                    absorbCompute(
                                        ctx, scaled(subtree), [&ctx] {
                                            ctx.response().bytes =
                                                kTimelineBytes;
                                            ctx.done();
                                        });
                                });
                    return;
                }
                const std::uint64_t uid = ctx.request().arg0;
                std::vector<HandlerCtx::CallSpec> pre;
                pre.push_back({pre_service, pre_op, small(uid)});
                pre.push_back({names::kTimelineCache, "get", small(uid)});
                ctx.callAll(
                    std::move(pre),
                    [this, &ctx, uid](const std::vector<Payload> &) {
                        std::vector<HandlerCtx::CallSpec> gets;
                        for (unsigned i = 0; i < params_.fanWidth; ++i) {
                            svc::Payload req = small(uid);
                            req.arg1 = i;
                            gets.push_back({names::kPostStorage, "mget",
                                            req});
                        }
                        ctx.callAll(
                            std::move(gets),
                            [this, &ctx](const std::vector<Payload> &) {
                                ctx.compute(scaled(kTimelineMerge),
                                            [&ctx] {
                                                ctx.response().bytes =
                                                    kTimelineBytes;
                                                ctx.done();
                                            });
                            });
                    });
            });
    };

    timeline(names::kHomeTimeline, names::kSocialGraph, "following");
    timeline(names::kUserTimeline, names::kUser, "lookup");
}

void
App::installCompose()
{
    using svc::HandlerCtx;
    using svc::Payload;

    const double subtree =
        kTextProcess + kUrlShorten + kUserMention + kUniqueId +
        kMediaProcess + kMediaStorePut + kUserLogic + kDbGet +
        kStoragePut + kCachePut + kDbPut + kWriteFanout + kGraphLogic +
        kDbGet + kCacheLogic + kDbPut;

    mesh_.service(names::kComposePost)
        .addOp("compose", [this, subtree](HandlerCtx &ctx) {
            if (!reaches(3)) {
                ctx.compute(scaled(kComposeLogic), [this, &ctx, subtree] {
                    absorbCompute(ctx, scaled(subtree), [&ctx] {
                        ctx.response().bytes = kAckBytes;
                        ctx.done();
                    });
                });
                return;
            }
            const std::uint64_t uid = ctx.request().arg0;
            std::vector<HandlerCtx::CallSpec> enrich;
            svc::Payload text_req = small(uid);
            text_req.bytes = kComposeReq;
            enrich.push_back({names::kText, "process", text_req});
            enrich.push_back({names::kUniqueId, "gen", small(uid)});
            svc::Payload media_req = small(uid);
            media_req.bytes = kComposeReq;
            enrich.push_back({names::kMedia, "upload", media_req});
            enrich.push_back({names::kUser, "lookup", small(uid)});
            ctx.callAll(
                std::move(enrich),
                [this, &ctx, uid](const std::vector<Payload> &) {
                    std::vector<HandlerCtx::CallSpec> persist;
                    svc::Payload post = small(uid);
                    post.bytes = kPostBytes;
                    persist.push_back({names::kPostStorage, "put", post});
                    persist.push_back(
                        {names::kWriteHomeTimeline, "fanout", small(uid)});
                    ctx.callAll(
                        std::move(persist),
                        [this, &ctx](const std::vector<Payload> &) {
                            ctx.compute(scaled(kComposeLogic), [&ctx] {
                                ctx.response().bytes = kAckBytes;
                                ctx.done();
                            });
                        });
                });
        });

    mesh_.service(names::kWriteHomeTimeline)
        .addOp("fanout", [this](HandlerCtx &ctx) {
            const std::uint64_t uid = ctx.request().arg0;
            ctx.compute(scaled(kWriteFanout), [this, &ctx, uid] {
                if (!reaches(4)) {
                    absorbCompute(ctx,
                                  scaled(kGraphLogic + kDbGet +
                                         kCacheLogic + kDbPut),
                                  [&ctx] {
                                      ctx.response().bytes = kAckBytes;
                                      ctx.done();
                                  });
                    return;
                }
                std::vector<HandlerCtx::CallSpec> legs;
                legs.push_back(
                    {names::kSocialGraph, "followers", small(uid)});
                legs.push_back(
                    {names::kTimelineCache, "put", small(uid)});
                ctx.callAll(std::move(legs),
                            [&ctx](const std::vector<Payload> &) {
                                ctx.response().bytes = kAckBytes;
                                ctx.done();
                            });
            });
        });

    mesh_.service(names::kText).addOp(
        "process", [this](HandlerCtx &ctx) {
            ctx.compute(scaled(kTextProcess), [this, &ctx] {
                if (!reaches(4)) {
                    absorbCompute(ctx, scaled(kUrlShorten + kUserMention),
                                  [&ctx] { ctx.done(); });
                    return;
                }
                const std::uint64_t uid = ctx.request().arg0;
                std::vector<HandlerCtx::CallSpec> legs;
                legs.push_back(
                    {names::kUrlShorten, "shorten", small(uid)});
                legs.push_back(
                    {names::kUserMention, "resolve", small(uid)});
                ctx.callAll(std::move(legs),
                            [&ctx](const std::vector<Payload> &) {
                                ctx.done();
                            });
            });
        });

    mesh_.service(names::kUniqueId).addOp("gen", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kUniqueId), [&ctx] { ctx.done(); });
    });

    mesh_.service(names::kMedia).addOp(
        "upload", [this](HandlerCtx &ctx) {
            ctx.compute(scaled(kMediaProcess), [this, &ctx] {
                if (!reaches(4)) {
                    absorbCompute(ctx, scaled(kMediaStorePut),
                                  [&ctx] { ctx.done(); });
                    return;
                }
                svc::Payload req = small(ctx.request().arg0);
                req.bytes = kPostBytes;
                ctx.call(names::kMediaStore, "put", req,
                         [&ctx](const Payload &) { ctx.done(); });
            });
        });

    mesh_.service(names::kUser).addOp(
        "lookup", [this](HandlerCtx &ctx) {
            ctx.compute(scaled(kUserLogic), [this, &ctx] {
                if (!reaches(4)) {
                    absorbCompute(ctx, scaled(kDbGet),
                                  [&ctx] { ctx.done(); });
                    return;
                }
                ctx.call(names::kUserDb, "get",
                         small(ctx.request().arg0),
                         [&ctx](const Payload &) { ctx.done(); });
            });
        });
}

void
App::installSocialGraph()
{
    using svc::HandlerCtx;
    using svc::Payload;
    svc::Service &sg = mesh_.service(names::kSocialGraph);

    auto read = [this, &sg](const char *op) {
        sg.addOp(op, [this](HandlerCtx &ctx) {
            ctx.compute(scaled(kGraphLogic), [this, &ctx] {
                if (!reaches(4)) {
                    absorbCompute(ctx, scaled(kDbGet),
                                  [&ctx] { ctx.done(); });
                    return;
                }
                ctx.call(names::kGraphDb, "get",
                         small(ctx.request().arg0),
                         [&ctx](const Payload &) { ctx.done(); });
            });
        });
    };
    read("following");
    read("followers");

    sg.addOp("follow", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kGraphLogic), [this, &ctx] {
            if (!reaches(4)) {
                absorbCompute(ctx, scaled(kDbPut), [&ctx] {
                    ctx.response().bytes = kAckBytes;
                    ctx.done();
                });
                return;
            }
            ctx.call(names::kGraphDb, "put", small(ctx.request().arg0),
                     [&ctx](const Payload &) {
                         ctx.response().bytes = kAckBytes;
                         ctx.done();
                     });
        });
    });
}

void
App::installStorage()
{
    using svc::HandlerCtx;
    using svc::Payload;
    svc::Service &ps = mesh_.service(names::kPostStorage);

    ps.addOp("mget", [this](HandlerCtx &ctx) {
        // The miss draw happens at every depth so the per-request RNG
        // sequence — and with it cross-depth determinism comparisons —
        // does not depend on where the graph is cut.
        const bool miss = ctx.rng().uniform01() < params_.cacheMissRatio;
        ctx.compute(scaled(kStorageMget), [this, &ctx, miss] {
            if (!reaches(4)) {
                absorbCompute(ctx,
                              scaled(kCacheGet + (miss ? kDbGet : 0.0)),
                              [&ctx] {
                                  ctx.response().bytes = kPostBytes;
                                  ctx.done();
                              });
                return;
            }
            const std::uint64_t key = ctx.request().arg0;
            ctx.call(names::kPostCache, "get", small(key),
                     [this, &ctx, miss, key](const Payload &) {
                         if (!miss) {
                             ctx.response().bytes = kPostBytes;
                             ctx.done();
                             return;
                         }
                         ctx.call(names::kPostDb, "get", small(key),
                                  [&ctx](const Payload &) {
                                      ctx.response().bytes = kPostBytes;
                                      ctx.done();
                                  });
                     });
        });
    });

    ps.addOp("put", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kStoragePut), [this, &ctx] {
            if (!reaches(4)) {
                absorbCompute(ctx, scaled(kCachePut + kDbPut), [&ctx] {
                    ctx.response().bytes = kAckBytes;
                    ctx.done();
                });
                return;
            }
            const std::uint64_t key = ctx.request().arg0;
            std::vector<HandlerCtx::CallSpec> legs;
            legs.push_back({names::kPostCache, "put", small(key)});
            svc::Payload row = small(key);
            row.bytes = kPostBytes;
            legs.push_back({names::kPostDb, "put", row});
            ctx.callAll(std::move(legs),
                        [&ctx](const std::vector<Payload> &) {
                            ctx.response().bytes = kAckBytes;
                            ctx.done();
                        });
        });
    });

    svc::Service &tc = mesh_.service(names::kTimelineCache);
    tc.addOp("get", [this](HandlerCtx &ctx) {
        const bool miss = ctx.rng().uniform01() < params_.cacheMissRatio;
        ctx.compute(scaled(kCacheLogic), [this, &ctx, miss] {
            if (!miss) {
                ctx.done();
                return;
            }
            if (!reaches(4)) {
                absorbCompute(ctx, scaled(kDbGet),
                              [&ctx] { ctx.done(); });
                return;
            }
            ctx.call(names::kTimelineDb, "get", small(ctx.request().arg0),
                     [&ctx](const Payload &) { ctx.done(); });
        });
    });
    tc.addOp("put", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kCacheLogic), [this, &ctx] {
            if (!reaches(4)) {
                absorbCompute(ctx, scaled(kDbPut),
                              [&ctx] { ctx.done(); });
                return;
            }
            ctx.call(names::kTimelineDb, "put", small(ctx.request().arg0),
                     [&ctx](const Payload &) { ctx.done(); });
        });
    });
}

void
App::installLeaves()
{
    using svc::HandlerCtx;

    auto leaf = [this](const char *svc_name, const char *op, double work,
                       std::uint32_t bytes) {
        mesh_.service(svc_name)
            .addOp(op, [this, work, bytes](HandlerCtx &ctx) {
                ctx.compute(scaled(work), [&ctx, bytes] {
                    ctx.response().bytes = bytes;
                    ctx.done();
                });
            });
    };

    leaf(names::kUrlShorten, "shorten", kUrlShorten, kAckBytes);
    leaf(names::kUserMention, "resolve", kUserMention, kAckBytes);
    leaf(names::kMediaStore, "put", kMediaStorePut, kAckBytes);
    leaf(names::kUserDb, "get", kDbGet, kSmallReq);
    leaf(names::kGraphDb, "get", kDbGet, kSmallReq);
    leaf(names::kGraphDb, "put", kDbPut, kAckBytes);
    leaf(names::kPostCache, "get", kCacheGet, kPostBytes);
    leaf(names::kPostCache, "put", kCachePut, kAckBytes);
    leaf(names::kPostDb, "get", kDbGet, kPostBytes);
    leaf(names::kPostDb, "put", kDbPut, kAckBytes);
    leaf(names::kTimelineDb, "get", kDbGet, kSmallReq);
    leaf(names::kTimelineDb, "put", kDbPut, kAckBytes);
}

} // namespace microscale::socialnet
