// ulsan fixture: compliant cross-shard code — no pool/engine handles,
// no reference captures, only by-value plain data crosses the boundary.
#include <cstdint>
#include <functional>

struct Event {
  std::uint64_t when;
  int payload;
};

void enqueue_local(std::function<void()> fn);

void good_hop(Event ev) {
  enqueue_local([ev] { (void)ev.payload; });
}
