#include "registry.hh"

#include <algorithm>
#include <map>

#include "cholesky.hh"
#include "diag.hh"
#include "fft1d.hh"
#include "fft3d.hh"
#include "is.hh"
#include "maxflow.hh"
#include "mg.hh"
#include "nbody.hh"
#include "sor.hh"

namespace cchar::apps {

namespace {

std::map<std::string, std::function<std::unique_ptr<SharedMemoryApp>()>> &
customSharedMemory()
{
    static std::map<std::string,
                    std::function<std::unique_ptr<SharedMemoryApp>()>>
        table;
    return table;
}

std::map<std::string,
         std::function<std::unique_ptr<MessagePassingApp>()>> &
customMessagePassing()
{
    static std::map<std::string,
                    std::function<std::unique_ptr<MessagePassingApp>()>>
        table;
    return table;
}

} // namespace

const std::vector<std::string> &
sharedMemoryAppNames()
{
    static const std::vector<std::string> names{
        "1d-fft", "is", "cholesky", "maxflow", "nbody", "sor"};
    return names;
}

const std::vector<std::string> &
messagePassingAppNames()
{
    static const std::vector<std::string> names{"3d-fft", "mg"};
    return names;
}

const std::vector<std::string> &
diagnosticAppNames()
{
    static const std::vector<std::string> names{"diag-spin",
                                                "diag-throw"};
    return names;
}

void
registerSharedMemoryApp(
    const std::string &name,
    std::function<std::unique_ptr<SharedMemoryApp>()> factory)
{
    customSharedMemory()[name] = std::move(factory);
}

void
registerMessagePassingApp(
    const std::string &name,
    std::function<std::unique_ptr<MessagePassingApp>()> factory)
{
    customMessagePassing()[name] = std::move(factory);
}

std::unique_ptr<SharedMemoryApp>
makeSharedMemoryApp(const std::string &name)
{
    auto custom = customSharedMemory().find(name);
    if (custom != customSharedMemory().end())
        return custom->second();
    if (name == "1d-fft")
        return std::make_unique<Fft1D>();
    if (name == "is")
        return std::make_unique<IntegerSort>();
    if (name == "cholesky")
        return std::make_unique<SparseCholesky>();
    if (name == "maxflow")
        return std::make_unique<Maxflow>();
    if (name == "nbody")
        return std::make_unique<Nbody>();
    if (name == "sor")
        return std::make_unique<RedBlackSor>();
    return nullptr;
}

std::unique_ptr<MessagePassingApp>
makeMessagePassingApp(const std::string &name)
{
    auto custom = customMessagePassing().find(name);
    if (custom != customMessagePassing().end())
        return custom->second();
    if (name == "3d-fft")
        return std::make_unique<Fft3D>();
    if (name == "mg")
        return std::make_unique<Multigrid>();
    if (name == "diag-spin")
        return std::make_unique<DiagSpin>();
    if (name == "diag-throw")
        return std::make_unique<DiagThrow>();
    return nullptr;
}

bool
isKnownApp(const std::string &name)
{
    if (customSharedMemory().count(name) ||
        customMessagePassing().count(name))
        return true;
    for (const auto &n : sharedMemoryAppNames())
        if (n == name)
            return true;
    for (const auto &n : messagePassingAppNames())
        if (n == name)
            return true;
    for (const auto &n : diagnosticAppNames())
        if (n == name)
            return true;
    return false;
}

bool
isSharedMemoryApp(const std::string &name)
{
    const auto &names = sharedMemoryAppNames();
    return customSharedMemory().count(name) ||
           std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace cchar::apps
