/**
 * @file
 * Deterministic chaos harness: seeded fault-plan generation, outcome
 * classification, and delta-debugging shrink (see DESIGN §6g).
 *
 * A chaos campaign asks the question the hand-written fault plans
 * cannot: "which combinations of faults does the stack NOT degrade
 * gracefully under?". The harness draws random — but seed-
 * reproducible — fault plans from the plan grammar, runs every
 * (application x plan) job through the sweep engine, classifies each
 * outcome, and reduces every failing plan to a minimal reproducing
 * plan by greedy clause removal followed by fault-window narrowing.
 *
 * Everything downstream of the seed is deterministic: the generated
 * plans, the campaign outcomes (the sweep engine's byte-identical
 * merge), and the shrink traces (run sequentially in job order). The
 * same seed therefore produces the same report for any worker count —
 * a failing plan found on a 64-core CI box replays on a laptop.
 */

#ifndef CCHAR_SWEEP_CHAOS_HH
#define CCHAR_SWEEP_CHAOS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/plan.hh"

namespace cchar::sweep {

/** Parameters of a chaos campaign. */
struct ChaosOptions
{
    /** Master seed of the plan generator. */
    std::uint64_t seed = 1;
    /** Fault plans to generate. */
    int plans = 8;
    /** Applications to cross the plans with (mp apps recover via the
     *  retry protocol; ccnuma apps probe raw degradation). */
    std::vector<std::string> apps{"3d-fft", "mg"};
    /** Processor count (factored into a near-square mesh). */
    int procs = 16;
    bool torus = false;
    int vcs = 1;
    /** Maximum fault clauses per generated plan. */
    int maxFaults = 3;
    /** Horizon used for bounded fault windows (us). */
    double horizonUs = 2000.0;
    /** Maximum extra runs spent shrinking one failing plan. */
    int shrinkBudget = 48;
};

/**
 * A generated fault plan in structured form. `render()` produces the
 * plan-grammar string that round-trips through FaultPlan::parse, so a
 * reported (shrunk) plan can be replayed verbatim with --fault-plan.
 */
struct ChaosPlan
{
    std::uint64_t planSeed = 1;
    fault::RetryConfig retry{};
    std::vector<fault::FaultSpec> faults;

    std::string render() const;
};

/** One classified (application x plan) chaos job. */
struct ChaosJobResult
{
    std::size_t index = 0;
    std::string app;
    /** The plan as run (render() of the generated plan). */
    std::string plan;
    /** recovered / delivery-failure / watchdog / deadline / deadlock
     *  or the raw status tag for anything else. */
    std::string classification;
    /** Raw sweep status ("ok", "sim-error", ...). */
    std::string status;
    std::string error;
    std::uint64_t deliveryFailures = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t reroutedPackets = 0;
    std::uint64_t linkDrops = 0;
    /** Minimal reproducing plan (empty for recovered jobs). */
    std::string shrunkPlan;
    /** Fault clauses surviving the shrink. */
    std::size_t shrunkFaults = 0;
    /** Extra simulation runs the shrink spent. */
    int shrinkRuns = 0;

    bool failing() const { return classification != "recovered"; }
};

/** Aggregate result of a chaos campaign. */
struct ChaosResult
{
    std::uint64_t seed = 0;
    std::vector<ChaosJobResult> jobs;

    std::size_t failingCount() const;

    /** Jobs with the given classification. */
    std::size_t count(const std::string &cls) const;

    /** Human-readable campaign summary. */
    void print(std::ostream &os) const;

    /** Deterministic JSON report. */
    void writeJson(std::ostream &os) const;
};

/**
 * Map a sweep outcome to a chaos classification:
 *   ok + no delivery failures  -> "recovered"
 *   ok + delivery failures     -> "delivery-failure"
 *   watchdog-trip              -> "watchdog"   (livelock)
 *   deadline-exceeded          -> "deadline"
 *   sim-error                  -> "deadlock"   (starved ranks)
 * Anything else keeps its raw status tag.
 */
std::string classifyChaosOutcome(const std::string &status,
                                 std::uint64_t deliveryFailures);

/** Runs a chaos campaign. */
class ChaosHarness
{
  public:
    explicit ChaosHarness(ChaosOptions opts) : opts_(std::move(opts)) {}

    /** The campaign's generated plans, in order (for tests). */
    std::vector<ChaosPlan> generatePlans() const;

    /**
     * Generate, run, classify and shrink. The campaign phase runs on
     * `workers` threads; classification and shrinking are sequential
     * in job order, so the result is identical for any worker count.
     * @throws core::CCharError(UsageError) on an invalid option set
     *         (unknown app, no plans, a shared-memory app above the
     *         CC-NUMA processor limit...).
     */
    ChaosResult run(int workers, bool progress = false);

  private:
    ChaosOptions opts_;
};

} // namespace cchar::sweep

#endif // CCHAR_SWEEP_CHAOS_HH
