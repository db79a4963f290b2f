/**
 * @file
 * Analytical wormhole-network performance model driven by fitted
 * characterizations.
 *
 * The paper's closing claim is that the fitted distributions "can be
 * used in the analysis of ICNs for developing realistic performance
 * models" (in the tradition of the mesh models of Adve & Vernon and
 * the wormhole models of Kim & Das it cites). This module provides
 * such a model: an open M/G/1-style queueing approximation of the
 * dimension-ordered wormhole mesh, parameterized entirely by a
 * CharacterizationReport —
 *
 *  - per-source message rates from the fitted inter-arrival means,
 *  - the squared coefficient of variation of the fitted arrival
 *    process (burstiness enters the waiting time),
 *  - per-source destination PMFs (the spatial attribute) routed with
 *    the same XY algorithm as the simulator to produce per-channel
 *    loads,
 *  - the message-length PMF for the channel service time.
 *
 * Per channel c: utilization rho_c = lambda_c * E[S]; mean wait by an
 * M/G/1 Pollaczek-Khinchine form with the arrival-process CV folded
 * in (an approximation, exact for Poisson arrivals):
 *
 *   W_c = rho_c * E[S] * (1 + CV_s^2) / (2 (1 - rho_c)) *
 *         (CV_a^2 + 1) / 2
 *
 * Message latency = no-load latency + sum of W_c along the route.
 * The model is compared against the event-driven simulator in
 * section M1 of bench_paper_suite.
 */

#ifndef CCHAR_CORE_ANALYTIC_HH
#define CCHAR_CORE_ANALYTIC_HH

#include <vector>

#include "report.hh"

namespace cchar::core {

/** Outcome of the analytical evaluation. */
struct AnalyticPrediction
{
    /** Mean end-to-end message latency (us). */
    double latencyMean = 0.0;
    /** Mean queueing (contention) component (us). */
    double contentionMean = 0.0;
    /** Mean channel utilization over used channels. */
    double avgChannelUtilization = 0.0;
    /** Peak channel utilization. */
    double maxChannelUtilization = 0.0;
    /** True if every channel is stable (rho < 1). */
    bool stable = true;
};

/** M/G/1-style wormhole mesh model. */
class AnalyticMeshModel
{
  public:
    /**
     * Evaluate the model for the traffic described by `report`.
     *
     * @param load_factor Multiplier on every source rate (load
     *        sweeps); 1.0 evaluates the fitted operating point.
     */
    static AnalyticPrediction evaluate(const CharacterizationReport &report,
                                       double load_factor = 1.0);

    /**
     * Per-channel arrival rates (messages/us) implied by the spatial
     * attribute under XY routing. Index: node*4 + direction
     * (E=0, W=1, N=2, S=3). Exposed for tests.
     */
    static std::vector<double>
    channelLoads(const CharacterizationReport &report,
                 double load_factor = 1.0);
};

} // namespace cchar::core

#endif // CCHAR_CORE_ANALYTIC_HH
