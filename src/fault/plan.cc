#include "plan.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/jsonscan.hh"
#include "core/status.hh"

namespace cchar::fault {

namespace {

using core::CCharError;
using core::StatusCode;

[[noreturn]] void
parseFail(const std::string &what)
{
    throw CCharError(StatusCode::ParseError, "fault plan: " + what);
}

/** Parse "10ms" / "5us" / "0.5s" / bare-us into microseconds. */
double
parseTimeUs(const std::string &text)
{
    if (text.empty())
        parseFail("empty time value");
    const char *begin = text.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin)
        parseFail("bad time value '" + text + "'");
    std::string unit{end};
    if (unit.empty() || unit == "us")
        return v;
    if (unit == "ms")
        return v * 1e3;
    if (unit == "s")
        return v * 1e6;
    parseFail("unknown time unit '" + unit + "' in '" + text + "'");
}

double
parseProbability(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    double p = std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        parseFail("bad probability '" + text + "'");
    if (p < 0.0 || p > 1.0)
        parseFail("probability out of [0,1]: '" + text + "'");
    return p;
}

/**
 * A non-negative int (a node id or a retry count), parsed in full: a
 * sign, trailing text or a value past INT_MAX is rejected, never
 * narrowed.
 */
int
parseCount(const std::string &text, const std::string &what)
{
    int n = 0;
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, n);
    if (ec != std::errc{} || end != last || n < 0)
        parseFail("bad " + what + " '" + text + "'");
    return n;
}

/** The range checks of a retry policy, shared by both plan forms. */
void
validateRetry(const RetryConfig &retry)
{
    if (!(retry.ackTimeoutUs > 0.0))
        parseFail("retry timeout must be positive");
    if (!(retry.backoffFactor >= 1.0))
        parseFail("retry backoff must be >= 1");
    if (retry.maxAttempts < 0)
        parseFail("retry max must be >= 0");
    if (retry.window < 1)
        parseFail("retry window must be >= 1");
}

/**
 * Split a trailing "@[T1,T2]" window off a clause. Returns the clause
 * without the window part.
 */
std::string
splitWindow(const std::string &clause, TimeWindow &window)
{
    auto at = clause.find("@[");
    if (at == std::string::npos)
        return clause;
    if (clause.back() != ']')
        parseFail("unterminated window in '" + clause + "'");
    std::string body = clause.substr(at + 2, clause.size() - at - 3);
    auto comma = body.find(',');
    if (comma == std::string::npos)
        parseFail("window needs two times in '" + clause + "'");
    window.begin = parseTimeUs(body.substr(0, comma));
    window.end = parseTimeUs(body.substr(comma + 1));
    if (window.end <= window.begin)
        parseFail("empty window in '" + clause + "'");
    return clause.substr(0, at);
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : text) {
        if (c == sep) {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** key=value with a required key. */
std::string
expectKeyValue(const std::string &part, const std::string &key,
               const std::string &clause)
{
    auto eq = part.find('=');
    if (eq == std::string::npos || part.substr(0, eq) != key)
        parseFail("expected '" + key + "=...' in '" + clause + "'");
    return part.substr(eq + 1);
}

/** A JSON retry parameter that must be an integer in int's range. */
int
readRetryInt(core::JsonScanner &js, const std::string &key)
{
    double v = js.readNumber();
    if (v != std::floor(v) || v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        parseFail("retry " + key + " must be an integer");
    return static_cast<int>(v);
}

FaultPlan
parseJson(const std::string &text)
{
    FaultPlan plan;
    core::JsonScanner js{text, "fault plan"};
    js.readObject([&](const std::string &key) {
        if (key == "seed") {
            plan.setSeed(js.readUInt());
        } else if (key == "retry") {
            RetryConfig retry;
            js.readObject([&](const std::string &rk) {
                if (rk == "timeout_us")
                    retry.ackTimeoutUs = js.readNumber();
                else if (rk == "max_attempts")
                    retry.maxAttempts = readRetryInt(js, rk);
                else if (rk == "backoff")
                    retry.backoffFactor = js.readNumber();
                else if (rk == "window")
                    retry.window = readRetryInt(js, rk);
                else
                    parseFail("unknown retry key '" + rk + "'");
            });
            validateRetry(retry);
            plan.setRetry(retry);
        } else if (key == "faults") {
            js.readArray([&] { plan.addSpec(js.readString()); });
        } else {
            parseFail("unknown plan key '" + key + "'");
        }
    });
    if (!js.atEnd())
        parseFail("trailing characters after JSON plan");
    return plan;
}

} // namespace

std::string
toString(FaultKind kind)
{
    switch (kind) {
    case FaultKind::LinkDown:
        return "link-down";
    case FaultKind::Drop:
        return "drop";
    case FaultKind::Corrupt:
        return "corrupt";
    case FaultKind::RouterStall:
        return "router-stall";
    }
    return "drop";
}

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    switch (kind) {
    case FaultKind::LinkDown:
        os << "link:" << node << "->" << peer << ":down";
        break;
    case FaultKind::Drop:
        os << "drop:p=" << probability;
        break;
    case FaultKind::Corrupt:
        os << "corrupt:p=" << probability;
        break;
    case FaultKind::RouterStall:
        os << "router:" << node << ":stall=" << stallUs << "us";
        break;
    }
    if (window.begin > 0.0 || window.bounded()) {
        os << "@[" << window.begin << "us,";
        if (window.bounded())
            os << window.end << "us";
        else
            os << "inf";
        os << "]";
    }
    return os.str();
}

void
FaultPlan::addSpec(const std::string &rawClause)
{
    std::string clause = trim(rawClause);
    if (clause.empty() || clause[0] == '#')
        return;

    // Plan-level assignments.
    if (clause.rfind("seed=", 0) == 0) {
        const char *begin = clause.c_str() + 5;
        char *end = nullptr;
        unsigned long long seed = std::strtoull(begin, &end, 10);
        if (end == begin || *end != '\0')
            parseFail("bad seed in '" + clause + "'");
        seed_ = static_cast<std::uint64_t>(seed);
        return;
    }
    if (clause.rfind("retry:", 0) == 0) {
        for (const std::string &rawPart :
             splitOn(clause.substr(6), ',')) {
            std::string part = trim(rawPart);
            auto eq = part.find('=');
            if (eq == std::string::npos)
                parseFail("expected key=value in '" + clause + "'");
            std::string key = part.substr(0, eq);
            std::string value = part.substr(eq + 1);
            if (key == "timeout") {
                retry_.ackTimeoutUs = parseTimeUs(value);
            } else if (key == "max") {
                retry_.maxAttempts = parseCount(value, "retry max");
            } else if (key == "backoff") {
                const char *begin = value.c_str();
                char *end = nullptr;
                retry_.backoffFactor = std::strtod(begin, &end);
                if (end == begin || *end != '\0')
                    parseFail("retry backoff must be >= 1");
            } else if (key == "window") {
                retry_.window = parseCount(value, "retry window");
            } else {
                parseFail("unknown retry key '" + key + "'");
            }
        }
        validateRetry(retry_);
        return;
    }

    FaultSpec spec;
    std::string body = splitWindow(clause, spec.window);
    auto parts = splitOn(body, ':');

    if (parts[0] == "link") {
        if (parts.size() != 3 || parts[2] != "down")
            parseFail("expected 'link:A->B:down' in '" + clause + "'");
        auto arrow = parts[1].find("->");
        if (arrow == std::string::npos)
            parseFail("expected 'A->B' in '" + clause + "'");
        spec.kind = FaultKind::LinkDown;
        spec.node = parseCount(parts[1].substr(0, arrow), "node id");
        spec.peer = parseCount(parts[1].substr(arrow + 2), "node id");
        if (spec.node == spec.peer)
            parseFail("link endpoints must differ in '" + clause + "'");
    } else if (parts[0] == "drop" || parts[0] == "corrupt") {
        if (parts.size() != 2)
            parseFail("expected '" + parts[0] + ":p=P' in '" + clause +
                      "'");
        spec.kind = parts[0] == "drop" ? FaultKind::Drop
                                       : FaultKind::Corrupt;
        spec.probability = parseProbability(
            expectKeyValue(parts[1], "p", clause));
    } else if (parts[0] == "router") {
        if (parts.size() != 3)
            parseFail("expected 'router:N:stall=D' in '" + clause + "'");
        spec.kind = FaultKind::RouterStall;
        spec.node = parseCount(parts[1], "node id");
        spec.stallUs =
            parseTimeUs(expectKeyValue(parts[2], "stall", clause));
        if (spec.stallUs < 0.0)
            parseFail("negative stall in '" + clause + "'");
    } else {
        parseFail("unknown fault kind '" + parts[0] + "'");
    }
    faults_.push_back(spec);
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    std::string trimmed = trim(text);
    if (!trimmed.empty() && trimmed[0] == '{')
        return parseJson(trimmed);

    FaultPlan plan;
    std::string clause;
    for (char c : text) {
        if (c == ';' || c == '\n') {
            plan.addSpec(clause);
            clause.clear();
        } else {
            clause += c;
        }
    }
    plan.addSpec(clause);
    return plan;
}

double
FaultPlan::plannedLinkDowntimeUs() const
{
    double total = 0.0;
    for (const auto &spec : faults_) {
        if (spec.kind == FaultKind::LinkDown && spec.window.bounded())
            total += spec.window.span();
    }
    return total;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << faults_.size() << " fault" << (faults_.size() == 1 ? "" : "s")
       << ", seed " << seed_;
    for (std::size_t i = 0; i < faults_.size(); ++i)
        os << (i == 0 ? ": " : "; ") << faults_[i].describe();
    return os.str();
}

} // namespace cchar::fault
