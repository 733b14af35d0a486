#include "sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

namespace ulsocks::benchmark {

namespace {

constexpr std::size_t kMaxDepth = 64;
// A frame-pointer chain that climbs more than this above the interrupted
// stack pointer is treated as corrupt and cut.
constexpr std::uintptr_t kMaxStackSpan = std::uintptr_t{1} << 20;
// ITIMER_PROF period.  The kernel rounds it up to its tick (about 4 ms on a
// 250 Hz kernel), so asking for 1 ms means "every tick".
constexpr long kPeriodUs = 1000;

struct Sample {
  std::uint32_t depth;
  std::uintptr_t pc[kMaxDepth];
};

struct State {
  Sample* buf = nullptr;
  std::size_t capacity = 0;
  std::uintptr_t text_lo = 0;
  std::uintptr_t text_hi = 0;
  std::uintptr_t base = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<bool> armed{false};
  std::atomic<int> inflight{0};
};
State g_state;  // NOLINT: the signal handler can reach nothing else

bool in_program(std::uintptr_t pc) {
  return pc >= g_state.text_lo && pc < g_state.text_hi;
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* ctx) {
  // Dekker-style handshake with stop(): either stop() sees this handler in
  // flight and waits, or this handler sees the sampler disarmed.
  g_state.inflight.fetch_add(1);
  if (g_state.armed.load()) {
    const std::size_t slot =
        g_state.next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= g_state.capacity) {
      g_state.dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      const auto* uc = static_cast<const ucontext_t*>(ctx);
      const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
      const auto sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
      auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
      Sample& s = g_state.buf[slot];
      std::uint32_t n = 0;
      s.pc[n++] = pc;
      // Only a program leaf guarantees RBP is a frame pointer; each step
      // then trusts the saved RBP only if its frame returns into program
      // text, i.e. was built by a function compiled with frame pointers.
      if (in_program(pc)) {
        while (n < kMaxDepth && fp >= sp && fp - sp < kMaxStackSpan &&
               (fp & 7u) == 0) {
          const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
          const std::uintptr_t ret = frame[1];
          if (!in_program(ret)) break;
          s.pc[n++] = ret - 1;  // inside the call instruction
          const std::uintptr_t up = frame[0];
          if (up <= fp) break;
          fp = up;
        }
      }
      s.depth = n;
    }
  }
  g_state.inflight.fetch_sub(1);
}

void set_timer(long period_us) {
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

int find_program_text(dl_phdr_info* info, std::size_t /*size*/, void* /*data*/) {
  // The first object dl_iterate_phdr reports is the main program.
  g_state.base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const std::uintptr_t hi = lo + ph.p_memsz;
    if (g_state.text_lo == 0 || lo < g_state.text_lo) g_state.text_lo = lo;
    if (hi > g_state.text_hi) g_state.text_hi = hi;
  }
  return 1;
}

std::string demangle(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || out == nullptr) return name;
  std::string s(out);
  std::free(out);
  return s;
}

/// An exported function of a loaded object, from its dynamic symbol table.
struct Exported {
  std::uintptr_t addr;
  const char* name;
};

/// Number of entries in a dynamic symbol table, from its GNU hash table
/// (the highest symbol index any hash chain reaches, plus one).
std::size_t gnu_hash_symbols(const std::uint32_t* h) {
  const std::uint32_t nbuckets = h[0];
  const std::uint32_t symoffset = h[1];
  const std::uint32_t bloom_words = h[2];
  const auto* buckets = reinterpret_cast<const std::uint32_t*>(
      reinterpret_cast<const ElfW(Addr)*>(h + 4) + bloom_words);
  const std::uint32_t* chain = buckets + nbuckets;
  std::uint32_t last = 0;
  for (std::uint32_t b = 0; b < nbuckets; ++b) last = std::max(last, buckets[b]);
  if (last < symoffset) return symoffset;
  while ((chain[last - symoffset] & 1u) == 0) ++last;
  return last + 1;
}

int collect_exports(dl_phdr_info* info, std::size_t /*size*/, void* data) {
  auto& out = *static_cast<std::vector<Exported>*>(data);
  const ElfW(Dyn)* dyn = nullptr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    if (info->dlpi_phdr[i].p_type == PT_DYNAMIC) {
      dyn = reinterpret_cast<const ElfW(Dyn)*>(info->dlpi_addr +
                                                info->dlpi_phdr[i].p_vaddr);
    }
  }
  if (dyn == nullptr) return 0;
  // The dynamic linker relocates these pointers in writable dynamic
  // sections only (not in the vDSO's), so add the load base when missing.
  auto at = [info](ElfW(Addr) p) {
    return p < info->dlpi_addr ? p + info->dlpi_addr : p;
  };
  const ElfW(Sym)* symtab = nullptr;
  const char* strtab = nullptr;
  std::size_t count = 0;
  for (; dyn->d_tag != DT_NULL; ++dyn) {
    if (dyn->d_tag == DT_SYMTAB) {
      symtab = reinterpret_cast<const ElfW(Sym)*>(at(dyn->d_un.d_ptr));
    } else if (dyn->d_tag == DT_STRTAB) {
      strtab = reinterpret_cast<const char*>(at(dyn->d_un.d_ptr));
    } else if (dyn->d_tag == DT_GNU_HASH) {
      count = gnu_hash_symbols(
          reinterpret_cast<const std::uint32_t*>(at(dyn->d_un.d_ptr)));
    } else if (dyn->d_tag == DT_HASH && count == 0) {
      count = reinterpret_cast<const std::uint32_t*>(at(dyn->d_un.d_ptr))[1];
    }
  }
  if (symtab == nullptr || strtab == nullptr) return 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ElfW(Sym)& s = symtab[i];
    const unsigned type = ELF64_ST_TYPE(s.st_info);
    if ((type == STT_FUNC || type == STT_GNU_IFUNC) && s.st_shndx != SHN_UNDEF &&
        s.st_value != 0) {
      out.push_back(Exported{info->dlpi_addr + s.st_value, strtab + s.st_name});
    }
  }
  return 0;
}

/// Name of a shared-object PC.  dladdr() names only exported functions.
/// The C library's copy routines are local symbols, so PCs just past the
/// entry point the dynamic linker resolved for memcpy and friends are
/// named after them; any other unnamed PC is named after the nearest
/// exported function below it ("name+0xoff"), which in a library built
/// from contiguous source files marks the file it came from (the malloc
/// internals follow __default_morecore, for example).
std::string library_symbol(std::uintptr_t pc, const Dl_info& info,
                           const std::vector<Exported>& exports) {
  if (info.dli_sname != nullptr) return demangle(info.dli_sname);
  using Copy = void* (*)(void*, const void*, std::size_t);
  using Fill = void* (*)(void*, int, std::size_t);
  using Compare = int (*)(const void*, const void*, std::size_t);
  const std::pair<const char*, std::uintptr_t> entries[] = {
      {"memcpy", reinterpret_cast<std::uintptr_t>(static_cast<Copy>(std::memcpy))},
      {"memmove", reinterpret_cast<std::uintptr_t>(static_cast<Copy>(std::memmove))},
      {"memset", reinterpret_cast<std::uintptr_t>(static_cast<Fill>(std::memset))},
      {"memcmp", reinterpret_cast<std::uintptr_t>(static_cast<Compare>(std::memcmp))},
  };
  const char* best = nullptr;
  std::uintptr_t best_entry = 0;
  for (const auto& [name, entry] : entries) {
    if (entry <= pc && pc - entry < 4096 && entry >= best_entry) {
      best = name;
      best_entry = entry;
    }
  }
  if (best != nullptr) return best;
  auto it = std::upper_bound(
      exports.begin(), exports.end(), pc,
      [](std::uintptr_t v, const Exported& e) { return v < e.addr; });
  if (it == exports.begin()) return "?";
  --it;
  if (pc - it->addr >= (std::uintptr_t{1} << 20)) return "?";
  char off[24];
  std::snprintf(off, sizeof off, "+0x%lx",
                static_cast<unsigned long>(pc - it->addr));
  return demangle(it->name) + off;
}

}  // namespace

Sampler::Sampler(std::size_t capacity) {
  if (g_state.buf != nullptr) throw std::logic_error("one Sampler at a time");
  // calloc of a large block maps zero pages lazily: only the samples
  // actually taken cost resident memory.
  g_state.buf = static_cast<Sample*>(std::calloc(capacity, sizeof(Sample)));
  if (g_state.buf == nullptr) throw std::bad_alloc();
  g_state.capacity = capacity;
  dl_iterate_phdr(find_program_text, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  // The timer runs for the sampler's whole life and start()/stop() only
  // gate recording: re-arming it per window would restart the countdown
  // each time, and windows shorter than a tick would never be sampled.
  set_timer(kPeriodUs);
}

Sampler::~Sampler() {
  stop();
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  std::free(g_state.buf);
  g_state.buf = nullptr;
}

void Sampler::start() { g_state.armed.store(true); }

void Sampler::stop() {
  g_state.armed.store(false);
  while (g_state.inflight.load() != 0) {
  }
}

std::uint64_t Sampler::samples() const {
  return std::min(g_state.next.load(), g_state.capacity);
}

std::uint64_t Sampler::dropped() const { return g_state.dropped.load(); }

bool Sampler::write(const std::string& path) const {
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
  std::set<std::uintptr_t> library_pcs;
  const std::size_t n = samples();
  for (std::size_t i = 0; i < n; ++i) {
    const Sample& s = g_state.buf[i];
    std::vector<std::uintptr_t> key(s.pc, s.pc + s.depth);
    for (std::uintptr_t pc : key) {
      if (!in_program(pc)) library_pcs.insert(pc);
    }
    ++stacks[std::move(key)];
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "ulsb-profile 1\nbase %lx\n",
               static_cast<unsigned long>(g_state.base));
  for (const auto& [key, count] : stacks) {
    std::fprintf(f, "stack %llu", static_cast<unsigned long long>(count));
    for (std::uintptr_t pc : key) {
      std::fprintf(f, " %lx", static_cast<unsigned long>(pc));
    }
    std::fputc('\n', f);
  }
  std::vector<Exported> exports;
  dl_iterate_phdr(collect_exports, &exports);
  std::sort(exports.begin(), exports.end(),
            [](const Exported& a, const Exported& b) { return a.addr < b.addr; });
  for (std::uintptr_t pc : library_pcs) {
    Dl_info info{};
    const bool found =
        dladdr(reinterpret_cast<const void*>(pc), &info) != 0 &&
        info.dli_fname != nullptr;
    const char* module = found ? std::strrchr(info.dli_fname, '/') : nullptr;
    module = module != nullptr ? module + 1 : (found ? info.dli_fname : "?");
    const std::string name = found ? library_symbol(pc, info, exports) : "?";
    std::fprintf(f, "lib %lx %s %s\n", static_cast<unsigned long>(pc),
                 module[0] != '\0' ? module : "?", name.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace ulsocks::benchmark
