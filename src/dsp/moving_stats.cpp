#include "dsp/moving_stats.hpp"


namespace emprof::dsp {

MovingAverage::MovingAverage(std::size_t window)
    : window_(window == 0 ? 1 : window)
{}

double
MovingAverage::push(double x)
{
    buf_.push_back(x);
    sum_.add(x);
    ++count_;
    if (buf_.size() > window_) {
        sum_.add(-buf_.front());
        buf_.pop_front();
    }
    return value();
}

double
MovingAverage::value() const
{
    if (buf_.empty())
        return 0.0;
    return sum_.value() / static_cast<double>(buf_.size());
}

void
MovingAverage::reset()
{
    buf_.clear();
    sum_.reset();
    count_ = 0;
}

TimeSeries
movingAverage(const TimeSeries &in, std::size_t window)
{
    TimeSeries out;
    out.sampleRateHz = in.sampleRateHz;
    out.samples.reserve(in.samples.size());
    MovingAverage avg(window);
    for (Sample s : in.samples)
        out.samples.push_back(static_cast<Sample>(avg.push(s)));
    return out;
}

} // namespace emprof::dsp
