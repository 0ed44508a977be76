// Negatives: every update form keeps its stat alive — increment,
// compound assign, .set/.sample, an update through a by-reference
// escape — and a deliberately-dormant stat can say so.
#pragma once

namespace stats {
class Scalar {
  public:
    Scalar &operator++();
    Scalar &operator+=(unsigned long v);
    void set(unsigned long v);
};
class Distribution {
  public:
    void sample(unsigned long v);
};
}

class BusModel {
  public:
    void onBeat(unsigned long n);

  private:
    stats::Scalar beats;
    stats::Scalar stalls;
    stats::Scalar highWater;
    stats::Distribution occupancy;
    stats::Scalar escaped;   // updated through touch(&escaped)
    // cdplint: allow(stat-liveness) -- kept for checkpoint-format stability until the v2 format lands
    stats::Scalar legacyPad;
};
