#include "chaos.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "core/status.hh"
#include "engine.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "spec.hh"
#include "stats/rng.hh"

namespace cchar::sweep {

namespace {

using obs::writeJsonString;

/** Fixed classification order for reports (then raw tags). */
const char *const kClasses[] = {
    "recovered", "delivery-failure", "watchdog", "deadline", "deadlock",
};

/**
 * All directed links of the topology in a fixed enumeration order
 * (node-major, E/W/N/S within a node), so the generator's link draws
 * depend only on the RNG stream.
 */
std::vector<std::pair<int, int>>
directedLinks(int width, int height, bool torus)
{
    std::vector<std::pair<int, int>> links;
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            int node = y * width + x;
            if (x < width - 1)
                links.emplace_back(node, node + 1);
            else if (torus && width > 1)
                links.emplace_back(node, y * width);
            if (x > 0)
                links.emplace_back(node, node - 1);
            else if (torus && width > 1)
                links.emplace_back(node, y * width + width - 1);
            if (y < height - 1)
                links.emplace_back(node, node + width);
            else if (torus && height > 1)
                links.emplace_back(node, x);
            if (y > 0)
                links.emplace_back(node, node - width);
            else if (torus && height > 1)
                links.emplace_back(node, (height - 1) * width + x);
        }
    }
    return links;
}

/**
 * Run one (app x plan) job in the calling thread and classify it.
 * Used by the shrinker, where runs must stay sequential to keep the
 * campaign deterministic for any worker count.
 */
std::string
classifyRun(const ChaosOptions &opts, const std::string &app,
            const ChaosPlan &plan)
{
    SweepJob job;
    job.app = app;
    job.procs = opts.procs;
    meshFactor(opts.procs, job.width, job.height);
    job.torus = opts.torus;
    job.vcs = opts.vcs;
    job.faultPlan = plan.render();
    obs::MetricsRegistry registry;
    JobOutcome out = SweepEngine::runJob(job, registry);
    return classifyChaosOutcome(out.status, out.deliveryFailures);
}

/**
 * Minimize a failing plan while preserving its classification:
 * greedy clause removal to a 1-minimal fault set, then binary
 * narrowing of each surviving bounded fault window. Every candidate
 * evaluation is one full simulation, so the search is budget-capped.
 */
ChaosPlan
shrinkPlan(const ChaosOptions &opts, const std::string &app,
           ChaosPlan plan, const std::string &target, int &runs)
{
    auto affordable = [&] { return runs < opts.shrinkBudget; };
    auto reproduces = [&](const ChaosPlan &candidate) {
        ++runs;
        return classifyRun(opts, app, candidate) == target;
    };

    // Phase 1: drop every clause whose removal keeps the failure.
    for (std::size_t i = 0; plan.faults.size() > 1 &&
                            i < plan.faults.size() && affordable();) {
        ChaosPlan candidate = plan;
        candidate.faults.erase(candidate.faults.begin() + i);
        if (reproduces(candidate))
            plan = std::move(candidate); // i now names the next clause
        else
            ++i;
    }

    // Phase 2: halve bounded windows while the failure reproduces,
    // preferring the earlier half (a deterministic tie-break).
    for (std::size_t i = 0; i < plan.faults.size(); ++i) {
        fault::TimeWindow &w = plan.faults[i].window;
        if (!w.bounded())
            continue;
        while (w.end - w.begin > 2.0 && affordable()) {
            double mid = std::floor((w.begin + w.end) / 2.0);
            ChaosPlan candidate = plan;
            candidate.faults[i].window.end = mid;
            if (mid > w.begin && reproduces(candidate)) {
                w.end = mid;
                continue;
            }
            candidate = plan;
            candidate.faults[i].window.begin = mid;
            if (mid < w.end && affordable() && reproduces(candidate)) {
                w.begin = mid;
                continue;
            }
            break;
        }
    }
    return plan;
}

} // namespace

std::string
ChaosPlan::render() const
{
    std::ostringstream os;
    os << "seed=" << planSeed << "; retry:timeout="
       << static_cast<long long>(retry.ackTimeoutUs) << "us,max="
       << retry.maxAttempts << ",backoff="
       << static_cast<long long>(retry.backoffFactor) << ",window="
       << retry.window;
    for (const fault::FaultSpec &f : faults)
        os << "; " << f.describe();
    return os.str();
}

std::string
classifyChaosOutcome(const std::string &status,
                     std::uint64_t deliveryFailures)
{
    if (status == "ok")
        return deliveryFailures == 0 ? "recovered" : "delivery-failure";
    if (status == "watchdog-trip")
        return "watchdog";
    if (status == "deadline-exceeded")
        return "deadline";
    if (status == "sim-error")
        return "deadlock";
    return status;
}

std::vector<ChaosPlan>
ChaosHarness::generatePlans() const
{
    if (opts_.plans < 1)
        throw core::CCharError(core::StatusCode::UsageError,
                               "chaos: --plans must be >= 1");
    if (opts_.maxFaults < 1)
        throw core::CCharError(core::StatusCode::UsageError,
                               "chaos: --max-faults must be >= 1");
    int width = 0;
    int height = 0;
    meshFactor(opts_.procs, width, height);
    for (const std::string &app : opts_.apps)
        checkProcessorLimit("chaos", app, opts_.procs);
    auto links = directedLinks(width, height, opts_.torus);

    stats::Rng rng{opts_.seed};
    // Integer horizon keeps every generated time round-trippable
    // through the plan grammar's default double formatting.
    auto horizon =
        std::max<std::uint64_t>(2,
                                static_cast<std::uint64_t>(opts_.horizonUs));

    std::vector<ChaosPlan> plans;
    plans.reserve(static_cast<std::size_t>(opts_.plans));
    for (int p = 0; p < opts_.plans; ++p) {
        ChaosPlan plan;
        plan.planSeed = rng.below(1u << 30) + 1;
        plan.retry.ackTimeoutUs =
            20.0 * static_cast<double>(1 + rng.below(10));
        // One plan in eight retries forever — watchdog-class fodder.
        plan.retry.maxAttempts =
            rng.below(8) == 0 ? 0 : static_cast<int>(2 + rng.below(5));
        plan.retry.backoffFactor = 2.0;
        const int windows[] = {1, 2, 4, 8};
        plan.retry.window = windows[rng.below(4)];

        auto faults = 1 + rng.below(static_cast<std::uint64_t>(
                              opts_.maxFaults));
        for (std::uint64_t f = 0; f < faults; ++f) {
            fault::FaultSpec spec;
            auto kind = rng.below(100);
            if (kind < 40 && !links.empty()) {
                spec.kind = fault::FaultKind::LinkDown;
                auto &link = links[rng.below(links.size())];
                spec.node = link.first;
                spec.peer = link.second;
            } else if (kind < 65) {
                spec.kind = fault::FaultKind::Drop;
                spec.probability =
                    static_cast<double>(1 + rng.below(300)) / 1000.0;
            } else if (kind < 85) {
                spec.kind = fault::FaultKind::Corrupt;
                spec.probability =
                    static_cast<double>(1 + rng.below(300)) / 1000.0;
            } else {
                spec.kind = fault::FaultKind::RouterStall;
                spec.node = static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(width * height)));
                spec.stallUs = static_cast<double>(1 + rng.below(20));
            }
            if (rng.below(2) == 0) {
                auto begin = rng.below(horizon / 2);
                auto span = 1 + rng.below(horizon / 2);
                spec.window.begin = static_cast<double>(begin);
                spec.window.end = static_cast<double>(begin + span);
            }
            plan.faults.push_back(spec);
        }
        plans.push_back(std::move(plan));
    }
    return plans;
}

ChaosResult
ChaosHarness::run(int workers, bool progress)
{
    std::vector<ChaosPlan> plans = generatePlans();

    SweepSpec spec;
    spec.apps = opts_.apps;
    spec.procs = {opts_.procs};
    spec.torus = opts_.torus;
    spec.vcs = opts_.vcs;
    spec.faultPlans.clear();
    for (const ChaosPlan &p : plans)
        spec.faultPlans.push_back(p.render());

    SweepEngine engine{spec};
    SweepResult campaign =
        engine.run({.workers = workers, .progress = progress});

    ChaosResult result;
    result.seed = opts_.seed;
    result.jobs.reserve(campaign.outcomes.size());
    for (const JobOutcome &o : campaign.outcomes) {
        ChaosJobResult jr;
        jr.index = o.job.index;
        jr.app = o.job.app;
        jr.plan = o.job.faultPlan;
        jr.status = o.status;
        jr.error = o.error;
        jr.classification =
            classifyChaosOutcome(o.status, o.deliveryFailures);
        jr.deliveryFailures = o.deliveryFailures;
        jr.retransmits = o.retransmits;
        jr.reroutedPackets = o.reroutedPackets;
        jr.linkDrops = o.linkDrops;
        result.jobs.push_back(std::move(jr));
    }

    // Shrink failing plans sequentially in job order. The expansion
    // is apps-outermost with fault plans innermost, so job index i
    // ran plan (i mod plans).
    for (ChaosJobResult &jr : result.jobs) {
        if (!jr.failing())
            continue;
        const ChaosPlan &original = plans[jr.index % plans.size()];
        int runs = 0;
        ChaosPlan minimal = shrinkPlan(opts_, jr.app, original,
                                       jr.classification, runs);
        jr.shrunkPlan = minimal.render();
        jr.shrunkFaults = minimal.faults.size();
        jr.shrinkRuns = runs;
    }
    return result;
}

std::size_t
ChaosResult::failingCount() const
{
    std::size_t n = 0;
    for (const ChaosJobResult &j : jobs)
        n += j.failing() ? 1 : 0;
    return n;
}

std::size_t
ChaosResult::count(const std::string &cls) const
{
    std::size_t n = 0;
    for (const ChaosJobResult &j : jobs)
        n += j.classification == cls ? 1 : 0;
    return n;
}

void
ChaosResult::print(std::ostream &os) const
{
    os << "-- Chaos campaign (seed " << seed << ") --\n"
       << "  jobs: " << jobs.size();
    for (const char *cls : kClasses)
        os << "  " << cls << ": " << count(cls);
    os << "\n";
    for (const ChaosJobResult &j : jobs) {
        os << "  [" << j.index << "] " << j.app << "  "
           << j.classification << "\n"
           << "      plan:   " << j.plan << "\n";
        if (j.failing()) {
            os << "      shrunk: " << j.shrunkPlan << "  ("
               << j.shrunkFaults << " fault"
               << (j.shrunkFaults == 1 ? "" : "s") << ", "
               << j.shrinkRuns << " shrink runs)\n";
        }
    }
    os << "  failing plans: " << failingCount() << " of " << jobs.size()
       << "\n";
}

void
ChaosResult::writeJson(std::ostream &os) const
{
    os << "{\"seed\":" << seed << ",\"classes\":{";
    bool first = true;
    for (const char *cls : kClasses) {
        if (!first)
            os << ",";
        first = false;
        os << '"' << cls << "\":" << count(cls);
    }
    os << "},\"jobs\":[";
    first = true;
    for (const ChaosJobResult &j : jobs) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"index\":" << j.index << ",\"app\":";
        writeJsonString(os, j.app);
        os << ",\"plan\":";
        writeJsonString(os, j.plan);
        os << ",\"classification\":";
        writeJsonString(os, j.classification);
        os << ",\"status\":";
        writeJsonString(os, j.status);
        os << ",\"delivery_failures\":" << j.deliveryFailures
           << ",\"retransmits\":" << j.retransmits
           << ",\"rerouted_packets\":" << j.reroutedPackets
           << ",\"link_drops\":" << j.linkDrops;
        if (j.failing()) {
            os << ",\"shrunk_plan\":";
            writeJsonString(os, j.shrunkPlan);
            os << ",\"shrunk_faults\":" << j.shrunkFaults
               << ",\"shrink_runs\":" << j.shrinkRuns;
        }
        os << "}";
    }
    os << "],\"failing\":" << failingCount() << "}\n";
}

} // namespace cchar::sweep
