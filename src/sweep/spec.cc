#include "spec.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "apps/registry.hh"
#include "ccnuma/machine.hh"
#include "core/jsonscan.hh"
#include "core/status.hh"
#include "fault/plan.hh"
#include "mesh/mesh.hh"

namespace cchar::sweep {

using core::CCharError;
using core::StatusCode;

namespace {

[[noreturn]] void
usageFail(const std::string &what)
{
    throw CCharError(StatusCode::UsageError, "sweep: " + what);
}

std::uint64_t
parseU64(const std::string &text)
{
    if (text.empty())
        usageFail("empty seed value");
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        usageFail("bad seed value '" + text + "'");
    return static_cast<std::uint64_t>(v);
}

/** The next number of @p js, an integer in [lo, hi <= 2^53] or fail. */
double
readInteger(core::JsonScanner &js, const std::string &key, std::int64_t lo,
            std::int64_t hi)
{
    const double v = js.readNumber();
    if (!(v >= lo && v <= hi) || v != std::floor(v))
        usageFail(key + " must be an integer in [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "]");
    return v;
}

} // namespace

std::string
SweepJob::label() const
{
    std::ostringstream os;
    os << app << "/p" << procs << "/l" << load << "/s" << seed;
    if (!faultPlan.empty())
        os << "/faulted";
    return os.str();
}

void
meshFactor(int n, int &width, int &height)
{
    if (n < 1 || n > mesh::kMaxNodes)
        usageFail("procs must be in [1, " + std::to_string(mesh::kMaxNodes) +
                  "]");
    height = 1;
    for (int h = 1; h * h <= n; ++h) {
        if (n % h == 0)
            height = h;
    }
    width = n / height;
}

void
checkProcessorLimit(const std::string &command, const std::string &app,
                    int procs)
{
    if (procs > ccnuma::kMaxProcessors && apps::isSharedMemoryApp(app)) {
        throw CCharError(StatusCode::UsageError,
                         command + ": shared-memory application '" + app +
                             "' takes at most " +
                             std::to_string(ccnuma::kMaxProcessors) +
                             " processors (procs " + std::to_string(procs) +
                             ")");
    }
}

std::vector<std::string>
parseList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is{text};
    while (std::getline(is, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<std::uint64_t>
parseSeeds(const std::string &text)
{
    std::vector<std::uint64_t> out;
    for (const std::string &item : parseList(text)) {
        std::size_t dots = item.find("..");
        if (dots == std::string::npos) {
            out.push_back(parseU64(item));
            continue;
        }
        std::uint64_t lo = parseU64(item.substr(0, dots));
        std::uint64_t hi = parseU64(item.substr(dots + 2));
        if (hi < lo)
            usageFail("descending seed range '" + item + "'");
        if (hi - lo >= 4096)
            usageFail("seed range '" + item + "' too large");
        for (std::uint64_t s = lo; s <= hi; ++s)
            out.push_back(s);
    }
    return out;
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    if (apps.empty())
        usageFail("no applications selected");
    if (procs.empty())
        usageFail("no processor counts selected");
    if (loads.empty() || seeds.empty() || faultPlans.empty())
        usageFail("empty sweep dimension");
    if (vcs < 1)
        usageFail("vcs must be >= 1");

    for (const std::string &app : apps) {
        if (!apps::isKnownApp(app))
            usageFail("unknown application '" + app + "'");
        for (int n : procs)
            checkProcessorLimit("sweep", app, n);
    }
    for (double load : loads) {
        if (!(load > 0.0))
            usageFail("load factors must be > 0");
    }
    for (const std::string &plan : faultPlans) {
        if (!plan.empty() && plan != "none")
            (void)fault::FaultPlan::parse(plan); // validate up front
    }

    std::vector<SweepJob> jobs;
    std::size_t index = 0;
    for (const std::string &app : apps) {
        for (int n : procs) {
            int width = 0, height = 0;
            meshFactor(n, width, height);
            for (double load : loads) {
                for (std::uint64_t seed : seeds) {
                    for (const std::string &plan : faultPlans) {
                        SweepJob job;
                        job.index = index++;
                        job.app = app;
                        job.procs = n;
                        job.width = width;
                        job.height = height;
                        job.torus = torus;
                        job.vcs = torus && vcs < 2 ? 2 : vcs;
                        job.load = load;
                        job.seed = seed;
                        job.faultPlan = plan == "none" ? "" : plan;
                        job.rankActivity = rankActivity;
                        job.linkStats = linkStats;
                        job.synthetic = synthetic;
                        jobs.push_back(std::move(job));
                    }
                }
            }
        }
    }
    return jobs;
}

SweepSpec
SweepSpec::fromJson(const std::string &text)
{
    SweepSpec spec;
    core::JsonScanner js{text, "sweep spec"};
    bool haveLoads = false, haveSeeds = false, havePlans = false;
    js.readObject([&](const std::string &key) {
        if (key == "apps") {
            js.readArray([&] { spec.apps.push_back(js.readString()); });
        } else if (key == "procs") {
            js.readArray([&] {
                spec.procs.push_back(static_cast<int>(
                    readInteger(js, key, 1, mesh::kMaxNodes)));
            });
        } else if (key == "loads") {
            if (!haveLoads) {
                spec.loads.clear();
                haveLoads = true;
            }
            js.readArray([&] { spec.loads.push_back(js.readNumber()); });
        } else if (key == "seeds") {
            if (!haveSeeds) {
                spec.seeds.clear();
                haveSeeds = true;
            }
            js.readArray([&] {
                spec.seeds.push_back(static_cast<std::uint64_t>(
                    readInteger(js, key, 0, std::int64_t{1} << 53)));
            });
        } else if (key == "fault_plans") {
            if (!havePlans) {
                spec.faultPlans.clear();
                havePlans = true;
            }
            js.readArray(
                [&] { spec.faultPlans.push_back(js.readString()); });
        } else if (key == "torus") {
            spec.torus = js.readBool();
        } else if (key == "vcs") {
            spec.vcs = static_cast<int>(readInteger(
                js, key, 1, std::numeric_limits<int>::max()));
        } else if (key == "rank_activity") {
            spec.rankActivity = js.readBool();
        } else if (key == "link_stats") {
            spec.linkStats = js.readBool();
        } else if (key == "synthetic") {
            spec.synthetic = js.readBool();
        } else {
            js.fail("unknown spec key '" + key + "'");
        }
    });
    if (!js.atEnd())
        js.fail("trailing characters after JSON spec");
    return spec;
}

SweepSpec
SweepSpec::fromJsonFile(const std::string &path)
{
    std::ifstream in{path};
    if (!in) {
        throw CCharError(StatusCode::IoError,
                         "sweep: cannot read spec file '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromJson(buf.str());
}

} // namespace cchar::sweep
