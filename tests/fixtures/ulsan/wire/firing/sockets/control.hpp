// ulsan fixture: a substrate control message with no adjacent
// static_assert (the rule covers src/sockets/control.* too).
#include <cstdint>

struct CtrlMsg {
  std::uint16_t type;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t c;
};

inline constexpr unsigned kCtrlBytes = 16;
