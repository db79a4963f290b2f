/**
 * @file
 * Sweep specification: the experiment matrix of a `cchar sweep` run.
 *
 * The paper's tables are grids — every application crossed with every
 * machine size — and reproducing one means running the whole cross
 * product. A SweepSpec names the points of that grid:
 *
 *   apps        application names (see apps/registry.hh)
 *   procs       processor counts; each becomes a near-square 2-D mesh
 *   loads       network load factors; factor L scales flitTime and
 *               routerDelay by L, emulating a network that is L times
 *               slower relative to the computation (higher effective
 *               offered load). 1.0 is the baseline network.
 *   seeds       fault-RNG seeds (one run per seed; 0 keeps the fault
 *               plan's own seed, and without a fault plan the seed is
 *               recorded but has no effect)
 *   fault_plans fault-plan specs in the fault/plan.hh grammar
 *               ("" or "none" = healthy network)
 *
 * expand() produces the jobs in a single canonical order — apps
 * outermost, fault plans innermost — so the job index, and therefore
 * every merged report, is a pure function of the spec, never of
 * worker scheduling.
 *
 * Specs come from CLI lists (parseList/parseSeeds) or a JSON document:
 *
 *   {"apps": ["is", "sor"], "procs": [4, 16],
 *    "loads": [1.0, 2.0], "seeds": [1, 2],
 *    "fault_plans": ["none", "drop:p=0.001"],
 *    "torus": false, "vcs": 1, "rank_activity": false,
 *    "link_stats": false, "synthetic": false}
 *
 * (restricted schema, same no-external-parser discipline as the fault
 * plan JSON form).
 */

#ifndef CCHAR_SWEEP_SPEC_HH
#define CCHAR_SWEEP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cchar::sweep {

/** One point of the sweep matrix, in canonical order. */
struct SweepJob
{
    /** Position in the canonical expansion (also the merge order). */
    std::size_t index = 0;
    std::string app;
    int procs = 0;
    /** Near-square mesh factorization of procs. */
    int width = 0;
    int height = 0;
    bool torus = false;
    int vcs = 1;
    double load = 1.0;
    std::uint64_t seed = 0;
    /** Fault-plan spec ("" = healthy). */
    std::string faultPlan;
    /** Track per-rank activity and report desync aggregates. */
    bool rankActivity = false;
    /** Track per-link stats and report network-weather aggregates. */
    bool linkStats = false;
    /**
     * After characterizing, run the fitted synthetic model back
     * through the network and record its fidelity (latency error and
     * per-attribute KS) alongside the job's metrics.
     */
    bool synthetic = false;

    /** Compact human-readable job label for logs and reports. */
    std::string label() const;
};

/** The sweep matrix. */
struct SweepSpec
{
    std::vector<std::string> apps;
    std::vector<int> procs;
    std::vector<double> loads{1.0};
    std::vector<std::uint64_t> seeds{0};
    std::vector<std::string> faultPlans{""};
    bool torus = false;
    int vcs = 1;
    /** Run every job with rank-activity tracking (--rank-activity). */
    bool rankActivity = false;
    /** Run every job with link-stats tracking (--link-stats). */
    bool linkStats = false;
    /** Run every job's synthetic-replay validation (--synthetic). */
    bool synthetic = false;

    /**
     * Cross the dimensions into the canonical job list.
     * @throws core::CCharError(UsageError) on an empty or invalid
     *         dimension (unknown app, non-factorable procs, a
     *         shared-memory app above the CC-NUMA processor limit...).
     */
    std::vector<SweepJob> expand() const;

    /**
     * Parse the JSON spec form.
     * @throws core::CCharError(ParseError) on malformed input.
     */
    static SweepSpec fromJson(const std::string &text);

    /** Load fromJson from a file (CCharError(IoError) if unreadable). */
    static SweepSpec fromJsonFile(const std::string &path);
};

/** Split a comma-separated CLI list ("is,sor" -> {"is","sor"}). */
std::vector<std::string> parseList(const std::string &text);

/**
 * Parse a seed list: comma-separated values, each either a number or
 * an inclusive range "A..B" ("1,4..6" -> {1,4,5,6}).
 * @throws core::CCharError(UsageError) on malformed input.
 */
std::vector<std::uint64_t> parseSeeds(const std::string &text);

/**
 * Near-square factorization of n: the largest h <= sqrt(n) dividing
 * n, paired with w = n/h.
 * @throws core::CCharError(UsageError) if n < 1.
 */
void meshFactor(int n, int &width, int &height);

/**
 * Reject a shared-memory application on more processors than the
 * CC-NUMA directory holds (ccnuma::kMaxProcessors) before any run.
 * @throws core::CCharError(UsageError) "<command>: ..." naming `app`
 *         and `procs`.
 */
void checkProcessorLimit(const std::string &command, const std::string &app,
                         int procs);

} // namespace cchar::sweep

#endif // CCHAR_SWEEP_SPEC_HH
