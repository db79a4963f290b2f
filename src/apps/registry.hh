/**
 * @file
 * Name-based registry of the workload applications.
 *
 * One place that knows every application the tool chain can run, so
 * the CLI, the sweep engine and the tests all agree on names and
 * construction. Names match the paper's tables ("1d-fft", "is",
 * "cholesky", "maxflow", "nbody", "sor" on the CC-NUMA side; "3d-fft",
 * "mg" on the message-passing side).
 */

#ifndef CCHAR_APPS_REGISTRY_HH
#define CCHAR_APPS_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app.hh"

namespace cchar::apps {

/** Names of the shared-memory (dynamic strategy) applications. */
const std::vector<std::string> &sharedMemoryAppNames();

/** Names of the message-passing (static strategy) applications. */
const std::vector<std::string> &messagePassingAppNames();

/**
 * Names of the built-in diagnostic workloads ("diag-spin",
 * "diag-throw"). Constructible and isKnownApp()-accepted like any
 * app, but kept out of the standard lists above so they only run
 * when asked for by name.
 */
const std::vector<std::string> &diagnosticAppNames();

/**
 * Register (or replace) a custom app factory under `name`. The
 * dynamic table is consulted before the built-ins by the make*
 * functions and isKnownApp(), which lets tests inject bespoke
 * behavior (throw on first attempt, hang until cancelled...) behind
 * an ordinary registry name. Not thread-safe: register before
 * running a sweep, never from inside one.
 */
void registerSharedMemoryApp(
    const std::string &name,
    std::function<std::unique_ptr<SharedMemoryApp>()> factory);
void registerMessagePassingApp(
    const std::string &name,
    std::function<std::unique_ptr<MessagePassingApp>()> factory);

/** Construct a shared-memory app by name; nullptr if unknown. */
std::unique_ptr<SharedMemoryApp>
makeSharedMemoryApp(const std::string &name);

/** Construct a message-passing app by name; nullptr if unknown. */
std::unique_ptr<MessagePassingApp>
makeMessagePassingApp(const std::string &name);

/** True if `name` names any registered application. */
bool isKnownApp(const std::string &name);

/**
 * True if makeSharedMemoryApp(name) constructs an app (a registered
 * factory or a built-in), without constructing one.
 */
bool isSharedMemoryApp(const std::string &name);

} // namespace cchar::apps

#endif // CCHAR_APPS_REGISTRY_HH
