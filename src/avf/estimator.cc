#include "avf/estimator.hh"

#include <cassert>

namespace wavedyn
{

AvfAccumulator::AvfAccumulator(unsigned entries) : entries(entries)
{
    assert(entries > 0);
}

double
AvfAccumulator::value() const
{
    if (cycles == 0)
        return 0.0;
    double avf = aceCycles /
                 (static_cast<double>(entries) *
                  static_cast<double>(cycles));
    if (avf < 0.0)
        avf = 0.0;
    if (avf > 1.0)
        avf = 1.0;
    return avf;
}

void
AvfAccumulator::resetWindow()
{
    aceCycles = 0.0;
    cycles = 0;
}

} // namespace wavedyn
