// Fixture: the sanctioned pending-event audit shape — snapshot the
// pending events, sort by the determinism key (when, then schedule
// sequence), then emit. The audit becomes a pure function of the
// pending set, independent of hash layout.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

struct WheelEvent
{
    std::uint64_t when;
    std::uint64_t seq;
    std::uint32_t payload;
};

std::string
auditPendingSorted(
    const std::unordered_map<std::uint32_t, WheelEvent> &pending)
{
    std::vector<WheelEvent> events;
    events.reserve(pending.size());
    for (const auto &kv : pending) {
        events.push_back(kv.second);
    }
    std::sort(events.begin(), events.end(),
              [](const WheelEvent &a, const WheelEvent &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });
    std::ostringstream os;
    for (const WheelEvent &e : events) {
        os << e.when << ":" << e.seq << " " << e.payload << "\n";
    }
    return os.str();
}
