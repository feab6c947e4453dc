#include "teastore/app.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "teastore/profiles.hh"

namespace microscale::teastore
{

namespace
{

// Nominal instruction budgets (before AppParams::workScale), calibrated
// so a product page costs a few ms of CPU across the service chain,
// matching the latency scale of the original application.

// WebUI page rendering.
constexpr double kHomeRender = 2.2e6;
constexpr double kCategoryRender = 3.2e6;
constexpr double kProductRender = 2.8e6;
constexpr double kLoginRender = 1.5e6;
constexpr double kCartRender = 1.6e6;
constexpr double kCheckoutRender = 2.0e6;
constexpr double kProfileRender = 2.0e6;

// Auth.
constexpr double kAuthHash = 3.5e6;     // password hash on login
constexpr double kAuthSession = 0.3e6;  // session token creation
constexpr double kAuthValidate = 0.6e6; // per-request session check

// Persistence: ORM + storage engine cost per query element.
constexpr double kDbBase = 150e3;
constexpr double kDbPerRow = 28e3;
constexpr double kDbPerDescent = 6e3;

// Recommender model scoring.
constexpr double kRecommendBase = 2.2e6;

// Image provider: cache hit vs rescale-on-miss.
constexpr double kPreviewHit = 180e3;
constexpr double kPreviewMiss = 1.6e6;
constexpr double kFullHit = 350e3;
constexpr double kFullMiss = 2.8e6;
constexpr std::uint32_t kPreviewBytes = 18 * 1024;

// Registry heartbeat processing.
constexpr double kHeartbeat = 150e3;

// Payload sizes.
constexpr std::uint32_t kSmallReq = 400;
constexpr std::uint32_t kHomeBytes = 16 * 1024;
constexpr std::uint32_t kCategoryBytes = 24 * 1024;
constexpr std::uint32_t kProductBytes = 20 * 1024;
constexpr std::uint32_t kPlainBytes = 8 * 1024;

double
dbInstructions(const db::QueryCost &cost)
{
    return kDbBase +
           kDbPerRow * static_cast<double>(cost.rowsTouched) +
           kDbPerDescent * static_cast<double>(cost.indexDescents);
}

} // namespace

const char *
opName(OpType op)
{
    switch (op) {
      case OpType::Home:
        return "home";
      case OpType::Login:
        return "login";
      case OpType::Category:
        return "category";
      case OpType::Product:
        return "product";
      case OpType::AddToCart:
        return "addToCart";
      case OpType::Checkout:
        return "checkout";
      case OpType::Profile:
        return "profile";
    }
    MS_PANIC("invalid OpType");
}

std::array<OpType, kNumOps>
allOps()
{
    return {OpType::Home,    OpType::Login,    OpType::Category,
            OpType::Product, OpType::AddToCart, OpType::Checkout,
            OpType::Profile};
}

App::App(svc::Mesh &mesh, AppParams params, std::uint64_t seed)
    : mesh_(mesh),
      params_(params),
      store_(params.store, seed),
      rng_(seed, "teastore.app")
{
    auto make = [&](const char *name, const cpu::WorkProfile &profile,
                    const ServiceConfig &cfg) {
        svc::ServiceParams sp;
        sp.name = name;
        sp.profile = profile;
        sp.replicas = cfg.replicas;
        sp.workersPerReplica = cfg.workers;
        return mesh_.createService(sp);
    };

    webui_ = make(names::kWebui, webuiProfile(), params_.webui);
    auth_ = make(names::kAuth, authProfile(), params_.auth);
    persistence_ =
        make(names::kPersistence, persistenceProfile(), params_.persistence);
    recommender_ =
        make(names::kRecommender, recommenderProfile(), params_.recommender);
    image_ = make(names::kImage, imageProfile(), params_.image);
    registry_ = make(names::kRegistry, registryProfile(), params_.registry);

    installWebui();
    installAuth();
    installPersistence();
    installRecommender();
    installImage();
    installRegistry();
}

std::vector<svc::Service *>
App::services() const
{
    return {webui_, auth_, persistence_, recommender_, image_, registry_};
}

void
App::start()
{
    if (started_)
        return;
    started_ = true;
    if (!params_.heartbeats)
        return;
    auto &sim = mesh_.kernel().sim();
    const std::vector<svc::Service *> senders = {
        webui_, auth_, persistence_, recommender_, image_};
    heartbeats_.resize(senders.size());
    for (std::size_t i = 0; i < senders.size(); ++i) {
        // Staggered phases avoid synchronized heartbeat bursts.
        const Tick phase = (i + 1) * 137 * kMillisecond;
        heartbeats_[i].start(
            sim, params_.heartbeatPeriod,
            [this] {
                svc::Payload hb;
                hb.bytes = 256;
                mesh_.callExternal(names::kRegistry, "heartbeat", hb,
                                   nullptr);
            },
            phase);
    }
}

void
App::stop()
{
    for (auto &hb : heartbeats_)
        hb.stop();
    heartbeats_.clear();
    started_ = false;
}

bool
App::brownoutDegrades()
{
    return brownout_ != nullptr && brownout_->shouldDegrade();
}

svc::Payload
App::sampleRequest(OpType op, Rng &rng) const
{
    svc::Payload p;
    p.bytes = kSmallReq;
    switch (op) {
      case OpType::Home:
        break;
      case OpType::Login:
        p.arg0 = store_.sampleUser(rng);
        break;
      case OpType::Category: {
        p.arg0 = store_.sampleCategory(rng);
        // Earlier pages are visited more often; never request a page
        // beyond the category's catalog.
        const unsigned pages = std::max<unsigned>(
            1, params_.store.productsPerCategory / params_.pageSize);
        std::vector<double> weights = {8, 4, 2, 1, 1};
        weights.resize(std::min<std::size_t>(weights.size(), pages));
        p.arg1 = rng.weightedIndex(weights);
        break;
      }
      case OpType::Product:
        p.arg0 = store_.sampleProduct(rng);
        p.arg1 = store_.sampleUser(rng);
        break;
      case OpType::AddToCart:
        p.arg0 = store_.sampleProduct(rng);
        p.arg1 = store_.sampleUser(rng);
        break;
      case OpType::Checkout:
        p.arg0 = store_.sampleUser(rng);
        break;
      case OpType::Profile:
        p.arg0 = store_.sampleUser(rng);
        break;
    }
    return p;
}

void
App::installWebui()
{
    using svc::HandlerCtx;
    using svc::Payload;

    auto small = [] {
        Payload p;
        p.bytes = kSmallReq;
        return p;
    };

    webui_->addOp("home", [this, small](HandlerCtx &ctx) {
        if (brownoutDegrades()) {
            // Brownout: serve the dimmed page from the category list
            // alone; the optional imagery call is never issued.
            ctx.traceAnnotate("brownout-dim");
            ctx.call(names::kPersistence, "categories", small(),
                     [this, &ctx](const Payload &) {
                         ctx.response().bytes = kHomeBytes;
                         ctx.response().degraded = true;
                         ctx.compute(scaled(kHomeRender),
                                     [&ctx] { ctx.done(); });
                     });
            return;
        }
        // The category list and the static imagery are independent:
        // fetch them in parallel, as the real front end does.
        Payload img = small();
        img.arg0 = 1; // site imagery starts at product 1
        img.arg1 = 4; // logo + banners
        std::vector<HandlerCtx::CallSpec> calls;
        calls.push_back({names::kPersistence, "categories", small()});
        calls.push_back({names::kImage, "previews", img});
        ctx.callAll(
            std::move(calls),
            [this, &ctx](const std::vector<Payload> &,
                         const std::vector<svc::Status> &statuses) {
                // The category list is the page; imagery is optional.
                if (statuses[0] != svc::Status::Ok) {
                    ctx.fail(statuses[0]);
                    return;
                }
                const bool degraded = statuses[1] != svc::Status::Ok;
                if (degraded && !params_.degradedFallbacks) {
                    ctx.fail(statuses[1]);
                    return;
                }
                if (degraded)
                    ctx.traceAnnotate("degraded-fallback");
                ctx.response().bytes = kHomeBytes;
                ctx.response().degraded = degraded;
                ctx.compute(scaled(kHomeRender), [&ctx] { ctx.done(); });
            });
    });

    webui_->addOp("login", [this, small](HandlerCtx &ctx) {
        Payload a = small();
        a.arg0 = ctx.request().arg0; // user id
        ctx.call(names::kAuth, "login", a,
                 [this, &ctx](const Payload &) {
                     ctx.response().bytes = kPlainBytes;
                     ctx.compute(scaled(kLoginRender),
                                 [&ctx] { ctx.done(); });
                 });
    });

    webui_->addOp("category", [this, small](HandlerCtx &ctx) {
        const bool dim = brownoutDegrades();
        ctx.call(
            names::kAuth, "validate", small(),
            [this, &ctx, small, dim](const Payload &) {
                Payload q = small();
                q.arg0 = ctx.request().arg0; // category
                q.arg1 = ctx.request().arg1; // page
                ctx.call(
                    names::kPersistence, "products", q,
                    [this, &ctx, small, dim](const Payload &resp) {
                        if (dim) {
                            // Brownout: skip the preview strip.
                            ctx.traceAnnotate("brownout-dim");
                            ctx.response().bytes = kCategoryBytes;
                            ctx.response().degraded = true;
                            ctx.compute(scaled(kCategoryRender),
                                        [&ctx] { ctx.done(); });
                            return;
                        }
                        Payload img = small();
                        img.arg0 = resp.arg0; // first product id
                        img.arg1 = resp.arg1; // count
                        ctx.call(
                            names::kImage, "previews", img,
                            [this, &ctx](const Payload &,
                                         svc::Status status) {
                                const bool ok =
                                    status == svc::Status::Ok;
                                if (!ok && !params_.degradedFallbacks) {
                                    ctx.fail(status);
                                    return;
                                }
                                ctx.response().bytes = kCategoryBytes;
                                ctx.response().degraded = !ok;
                                ctx.compute(scaled(kCategoryRender),
                                            [&ctx] { ctx.done(); });
                            });
                    });
            });
    });

    webui_->addOp("product", [this, small](HandlerCtx &ctx) {
        // Auth and the product row are the page; recommendations and
        // imagery degrade gracefully when fallbacks are enabled.
        const bool dim = brownoutDegrades();
        ctx.call(
            names::kAuth, "validate", small(),
            [this, &ctx, small, dim](const Payload &) {
                Payload q = small();
                q.arg0 = ctx.request().arg0; // product
                ctx.call(
                    names::kPersistence, "product", q,
                    [this, &ctx, small, dim](const Payload &prod) {
                        if (dim) {
                            // Brownout: the product row is the page;
                            // the recommender and both imagery legs
                            // are skipped as a unit.
                            ctx.traceAnnotate("brownout-dim");
                            ctx.response().bytes = kProductBytes;
                            ctx.response().degraded = true;
                            ctx.compute(scaled(kProductRender),
                                        [&ctx] { ctx.done(); });
                            return;
                        }
                        Payload rec = small();
                        rec.arg0 = ctx.request().arg1; // user
                        rec.arg1 = ctx.request().arg0; // product
                        ctx.call(
                            names::kRecommender, "recommend", rec,
                            [this, &ctx, small, prod](
                                const Payload &ads,
                                svc::Status rec_status) {
                                const bool rec_ok =
                                    rec_status == svc::Status::Ok;
                                if (!rec_ok &&
                                    !params_.degradedFallbacks) {
                                    ctx.fail(rec_status);
                                    return;
                                }
                                Payload full = small();
                                full.arg0 = prod.arg0;
                                ctx.call(
                                    names::kImage, "full", full,
                                    [this, &ctx, small, ads, rec_ok](
                                        const Payload &,
                                        svc::Status full_status) {
                                        const bool full_ok =
                                            full_status ==
                                            svc::Status::Ok;
                                        if (!full_ok &&
                                            !params_
                                                 .degradedFallbacks) {
                                            ctx.fail(full_status);
                                            return;
                                        }
                                        auto render = [this, &ctx,
                                                       rec_ok, full_ok](
                                                          bool pre_ok) {
                                            ctx.response().bytes =
                                                kProductBytes;
                                            ctx.response().degraded =
                                                !rec_ok || !full_ok ||
                                                !pre_ok;
                                            ctx.compute(
                                                scaled(kProductRender),
                                                [&ctx] { ctx.done(); });
                                        };
                                        if (!rec_ok) {
                                            // No recommendations, so
                                            // no ad strip to fetch.
                                            render(true);
                                            return;
                                        }
                                        Payload pre = small();
                                        pre.arg0 = ads.arg0;
                                        pre.arg1 = 3; // ad previews
                                        ctx.call(
                                            names::kImage, "previews",
                                            pre,
                                            [this, &ctx, render](
                                                const Payload &,
                                                svc::Status
                                                    pre_status) {
                                                const bool pre_ok =
                                                    pre_status ==
                                                    svc::Status::Ok;
                                                if (!pre_ok &&
                                                    !params_
                                                         .degradedFallbacks) {
                                                    ctx.fail(
                                                        pre_status);
                                                    return;
                                                }
                                                render(pre_ok);
                                            });
                                    });
                            });
                    });
            });
    });

    webui_->addOp("addToCart", [this, small](HandlerCtx &ctx) {
        const bool dim = brownoutDegrades();
        ctx.call(
            names::kAuth, "validate", small(),
            [this, &ctx, small, dim](const Payload &) {
                Payload q = small();
                q.arg0 = ctx.request().arg0; // product
                ctx.call(
                    names::kPersistence, "product", q,
                    [this, &ctx, small, dim](const Payload &) {
                        if (dim) {
                            // Brownout: cart math without the
                            // recommender cross-sell.
                            ctx.traceAnnotate("brownout-dim");
                            ctx.response().bytes = kPlainBytes;
                            ctx.response().degraded = true;
                            ctx.compute(scaled(kCartRender),
                                        [&ctx] { ctx.done(); });
                            return;
                        }
                        Payload rec = small();
                        rec.arg0 = ctx.request().arg1; // user
                        rec.arg1 = ctx.request().arg0;
                        ctx.call(
                            names::kRecommender, "recommend", rec,
                            [this, &ctx](const Payload &,
                                         svc::Status status) {
                                const bool ok =
                                    status == svc::Status::Ok;
                                if (!ok && !params_.degradedFallbacks) {
                                    ctx.fail(status);
                                    return;
                                }
                                ctx.response().bytes = kPlainBytes;
                                ctx.response().degraded = !ok;
                                ctx.compute(scaled(kCartRender),
                                            [&ctx] { ctx.done(); });
                            });
                    });
            });
    });

    webui_->addOp("checkout", [this, small](HandlerCtx &ctx) {
        ctx.call(names::kAuth, "validate", small(),
                 [this, &ctx, small](const Payload &) {
                     Payload q = small();
                     q.arg0 = ctx.request().arg0; // user
                     ctx.call(names::kPersistence, "placeOrder", q,
                              [this, &ctx](const Payload &) {
                                  ctx.response().bytes = kPlainBytes;
                                  ctx.compute(scaled(kCheckoutRender),
                                              [&ctx] { ctx.done(); });
                              });
                 });
    });

    webui_->addOp("profile", [this, small](HandlerCtx &ctx) {
        ctx.call(
            names::kAuth, "validate", small(),
            [this, &ctx, small](const Payload &) {
                Payload q = small();
                q.arg0 = ctx.request().arg0; // user
                ctx.call(
                    names::kPersistence, "user", q,
                    [this, &ctx, small](const Payload &) {
                        Payload o = small();
                        o.arg0 = ctx.request().arg0;
                        ctx.call(names::kPersistence, "ordersOfUser", o,
                                 [this, &ctx](const Payload &) {
                                     ctx.response().bytes =
                                         kPlainBytes + 4 * 1024;
                                     ctx.compute(scaled(kProfileRender),
                                                 [&ctx] { ctx.done(); });
                                 });
                    });
            });
    });
}

void
App::installAuth()
{
    using svc::HandlerCtx;
    using svc::Payload;

    auth_->addOp("login", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kAuthHash), [this, &ctx] {
            Payload q;
            q.bytes = kSmallReq;
            q.arg0 = ctx.request().arg0; // user id
            ctx.call(names::kPersistence, "userByName", q,
                     [this, &ctx](const Payload &) {
                         ctx.compute(scaled(kAuthSession), [&ctx] {
                             ctx.response().bytes = 600;
                             ctx.done();
                         });
                     });
        });
    });

    auth_->addOp("validate", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kAuthValidate), [&ctx] {
            ctx.response().bytes = 300;
            ctx.done();
        });
    });
}

void
App::installPersistence()
{
    installDataOps(*persistence_, /*direct=*/false);
}

void
App::installDataOps(svc::Service &svc, bool direct)
{
    using svc::HandlerCtx;

    // Non-direct handlers (the app's own Persistence service) defer to
    // the cluster backend when one is installed; shard-side copies
    // (direct) always execute against the store. With no backend the
    // check is a null test — byte-identical to the pre-cluster code.
    auto remoted = [this, direct](HandlerCtx &ctx, const char *op) {
        return !direct && scaleout_ != nullptr &&
               scaleout_->persistenceOp(ctx, op);
    };

    svc.addOp("categories", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "categories"))
            return;
        db::QueryCost cost;
        const auto ids = store_.listCategories(cost);
        ctx.response().arg0 = ids.size();
        ctx.response().bytes = 2 * 1024;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("products", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "products"))
            return;
        db::QueryCost cost;
        auto cat = static_cast<db::CategoryId>(ctx.request().arg0);
        const unsigned page = static_cast<unsigned>(ctx.request().arg1);
        const auto ids = store_.productsInCategory(
            cat, page * params_.pageSize, params_.pageSize, cost);
        ctx.response().arg0 = ids.empty() ? 0 : ids.front();
        ctx.response().arg1 = ids.size();
        ctx.response().bytes =
            1024 + static_cast<std::uint32_t>(ids.size()) * 256;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("product", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "product"))
            return;
        db::QueryCost cost;
        auto id = static_cast<db::ProductId>(ctx.request().arg0);
        const db::Product *p = store_.product(id, cost);
        if (!p) {
            // Unknown ids behave like a valid catalog miss page.
            ctx.response().arg0 = 0;
            ctx.response().arg1 = 0;
        } else {
            ctx.response().arg0 = p->id;
            ctx.response().arg1 = p->imageBytes;
        }
        ctx.response().bytes = 1024;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("userByName", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "userByName"))
            return;
        db::QueryCost cost;
        const std::string name =
            "user-" + std::to_string(ctx.request().arg0);
        const db::User *u = store_.userByName(name, cost);
        ctx.response().arg0 = u ? u->id : 0;
        ctx.response().bytes = 500;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("user", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "user"))
            return;
        db::QueryCost cost;
        const db::User *u = store_.user(
            static_cast<db::UserId>(ctx.request().arg0), cost);
        ctx.response().arg0 = u ? u->id : 0;
        ctx.response().bytes = 600;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("ordersOfUser", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "ordersOfUser"))
            return;
        db::QueryCost cost;
        const auto ids = store_.ordersOfUser(
            static_cast<db::UserId>(ctx.request().arg0), 10, cost);
        ctx.response().arg0 = ids.size();
        ctx.response().bytes =
            1024 + static_cast<std::uint32_t>(ids.size()) * 128;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });

    svc.addOp("placeOrder", [this, remoted](HandlerCtx &ctx) {
        if (remoted(ctx, "placeOrder"))
            return;
        db::QueryCost cost;
        const auto user = static_cast<db::UserId>(ctx.request().arg0);
        const auto n_items =
            static_cast<unsigned>(ctx.rng().uniformInt(1, 5));
        std::vector<db::OrderItem> items;
        items.reserve(n_items);
        for (unsigned i = 0; i < n_items; ++i) {
            const db::ProductId pid = store_.sampleProduct(ctx.rng());
            const db::Product *p = store_.product(pid, cost);
            db::OrderItem item;
            item.product = pid;
            item.quantity =
                static_cast<std::uint16_t>(ctx.rng().uniformInt(1, 3));
            item.unitPriceCents = p ? p->priceCents : 999;
            items.push_back(item);
        }
        const db::OrderId oid =
            store_.placeOrder(user, items, ctx.now(), cost);
        ctx.response().arg0 = oid;
        ctx.response().bytes = 700;
        ctx.compute(scaled(dbInstructions(cost)), [&ctx] { ctx.done(); });
    });
}

void
App::installImageFetchOp(svc::Service &svc)
{
    using svc::HandlerCtx;

    // The rescale-on-miss work of the ImageProvider's "full" op,
    // executed on the shard that owns the image bytes. Unlike the
    // local path there is no cache-hit draw: this op only runs on
    // misses, so its cost is always the miss cost.
    svc.addOp("imgFetch", [this](HandlerCtx &ctx) {
        db::QueryCost cost;
        const db::Product *p = store_.product(
            static_cast<db::ProductId>(ctx.request().arg0), cost);
        const std::uint32_t bytes =
            p ? p->imageBytes : params_.store.meanImageBytes;
        const double size_factor =
            static_cast<double>(bytes) /
            static_cast<double>(params_.store.meanImageBytes);
        const double instructions =
            kFullMiss * std::max(0.25, size_factor);
        ctx.response().bytes = bytes;
        ctx.compute(scaled(instructions), [&ctx] { ctx.done(); });
    });
}

void
App::installRecommender()
{
    using svc::HandlerCtx;

    recommender_->addOp("recommend", [this](HandlerCtx &ctx) {
        // The in-memory model is trained offline; scoring cost scales
        // mildly with catalog size.
        const double catalog_factor =
            1.0 + 0.1 * static_cast<double>(store_.productCount()) / 1500.0;
        ctx.compute(scaled(kRecommendBase * catalog_factor), [this, &ctx] {
            ctx.response().arg0 = store_.sampleProduct(ctx.rng());
            ctx.response().arg1 = 3;
            ctx.response().bytes = 1024;
            ctx.done();
        });
    });
}

void
App::installImage()
{
    using svc::HandlerCtx;

    image_->addOp("previews", [this](HandlerCtx &ctx) {
        const auto count =
            static_cast<unsigned>(std::min<std::uint64_t>(
                ctx.request().arg1, 64));
        double instructions = 0.0;
        for (unsigned i = 0; i < count; ++i) {
            instructions +=
                ctx.rng().chance(params_.imageCacheHitRatio)
                    ? kPreviewHit
                    : kPreviewMiss;
        }
        if (count == 0)
            instructions = kPreviewHit;
        ctx.response().bytes = std::max<std::uint32_t>(
            1024, count * kPreviewBytes);
        ctx.compute(scaled(instructions), [&ctx] { ctx.done(); });
    });

    image_->addOp("full", [this](HandlerCtx &ctx) {
        db::QueryCost cost;
        const db::Product *p = store_.product(
            static_cast<db::ProductId>(ctx.request().arg0), cost);
        const std::uint32_t bytes =
            p ? p->imageBytes : params_.store.meanImageBytes;
        const bool hit = ctx.rng().chance(params_.imageCacheHitRatio);
        // Cluster mode: a local miss is fetched from the distributed
        // cache/shard tier instead of rescaling here. The hit draw
        // above already happened, so the local-hit fast path (and the
        // RNG sequence) is shared between both modes.
        if (!hit && scaleout_ != nullptr &&
            scaleout_->imageMiss(ctx, ctx.request().arg0, bytes))
            return;
        // Rescale cost grows with the source image size.
        const double size_factor =
            static_cast<double>(bytes) /
            static_cast<double>(params_.store.meanImageBytes);
        const double instructions =
            hit ? kFullHit : kFullMiss * std::max(0.25, size_factor);
        ctx.response().bytes = bytes;
        ctx.compute(scaled(instructions), [&ctx] { ctx.done(); });
    });
}

void
App::installRegistry()
{
    using svc::HandlerCtx;

    registry_->addOp("heartbeat", [this](HandlerCtx &ctx) {
        ctx.compute(scaled(kHeartbeat), [&ctx] {
            ctx.response().bytes = 128;
            ctx.done();
        });
    });
}

} // namespace microscale::teastore
