#include "sampler.hh"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "json.hh"

namespace cchar::obs {

std::size_t
WindowedSampler::addSeries(std::string name,
                           std::function<double()> probe)
{
    if (!times_.empty())
        throw std::logic_error(
            "obs: cannot add a series after sampling started");
    if (!probe)
        throw std::invalid_argument("obs: null series probe");
    series_.push_back(Series{std::move(name), std::move(probe), {}});
    return series_.size() - 1;
}

void
WindowedSampler::sample(double t)
{
    times_.push_back(t);
    for (auto &s : series_)
        s.values.push_back(s.probe());
}

const std::string &
WindowedSampler::seriesName(std::size_t i) const
{
    return series_.at(i).name;
}

const std::vector<double> &
WindowedSampler::seriesValues(std::size_t i) const
{
    return series_.at(i).values;
}

namespace {

void
jsonArray(std::ostream &os, const std::vector<double> &xs)
{
    os << "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i)
            os << ",";
        os << (std::isfinite(xs[i]) ? xs[i] : 0.0);
    }
    os << "]";
}

} // namespace

void
WindowedSampler::writeJson(std::ostream &os) const
{
    os << "{\"t\":";
    jsonArray(os, times_);
    os << ",\"series\":{";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (i)
            os << ",";
        writeJsonString(os, series_[i].name);
        os << ":";
        jsonArray(os, series_[i].values);
    }
    os << "}}";
}

} // namespace cchar::obs
