// ulsan fixture: the same illegal edge, suppressed (fixtures only —
// real layering violations are fixed, never suppressed).
#include "apps/httpd.hpp"  // NOLINT(ulsan-layering)
#include "net/link.hpp"
