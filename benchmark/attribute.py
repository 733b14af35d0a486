#!/usr/bin/env python3
"""Attribute sampled host CPU time to the simulator's layers.

The traced build's sampler (sampler.cpp) writes a profile:

    ulsb-profile 1
    base <hex>                       load address of the program
    stack <count> <pc> <pc> ...      innermost first, hex runtime addresses
    lib <pc> <module> <name>         shared-object PCs, named in-process

Program PCs are named here with `nm -C` on the traced binary.  Each sample
goes to exactly one layer, by the first rule that matches:

1. A leaf in a shared object goes to a libc bucket by its name:
   libc.alloc, libc.copy, libc.sched or libc.other.  Library frames carry
   no frame pointers, so nothing above such a leaf is known.
2. A stack with a check::Registry::run_all or a check_invariants frame
   goes to `check`.
3. Otherwise the innermost frame named ulsocks::<ns>:: decides, through
   NAMESPACE_LAYERS.  ShardGroup code counts as sim.shard rather than
   sim.engine, and so does the std::thread worker that takes a ShardGroup
   lambda as its template argument.
4. A stack with no such frame is `unattributed`.

sim.shard is further split by the ShardGroup member the sample is in:
wait (the worker spin loop), mailbox (cross-shard posting and delivery)
and plan (epoch-bound computation); the rest of ShardGroup has no part.

Run `python3 benchmark/attribute.py --self-test` to check the table
against fixture stacks.
"""
import bisect
import re
import subprocess
import sys
from collections import Counter, defaultdict

# The top-level buckets; every sample lands in exactly one, so their shares
# sum to 1.
LAYERS = [
    "sim.engine", "sim.shard", "net", "nic", "emp", "sockets", "tcp", "os",
    "apps", "check", "obs", "bench",
    "libc.alloc", "libc.copy", "libc.sched", "libc.other",
    "unattributed",
]

# ulsocks::<namespace>:: -> layer.  The namespaces are the src/ modules
# (oskernel's is `os`); `benchmark` is this benchmark's own driver code.
NAMESPACE_LAYERS = {
    "sim": "sim.engine",
    "net": "net",
    "nic": "nic",
    "emp": "emp",
    "sockets": "sockets",
    "tcp": "tcp",
    "os": "os",
    "apps": "apps",
    "check": "check",
    "obs": "obs",
    "benchmark": "bench",
}

SHARD_PARTS = {
    "run_parallel": "wait",
    "deliver_mailboxes": "mailbox",
    "post_remote": "mailbox",
    "outbox_empty": "mailbox",
    "box": "mailbox",
    "begin_epoch": "plan",
    "refresh_dist": "plan",
    "clamp_for_pending_migrations": "plan",
    "single_runnable": "plan",
    "coalesce_single": "plan",
    "plan_bounds": "plan",
    "path_lookahead": "plan",
    "edge": "plan",
    "dist": "plan",
    "sat_add": "plan",
}

LIBC_BUCKETS = [
    ("libc.copy", re.compile(r"^(__)?(mem(cpy|move|set|cmp)|bcmp|bzero|wmem)")),
    ("libc.alloc", re.compile(
        r"malloc|free|calloc|realloc|memalign|aligned_alloc|morecore|"
        r"operator new|operator delete|_int_|tcache|brk|mmap|munmap|madvise")),
    ("libc.sched", re.compile(
        r"sched_yield|nanosleep|futex|__lll_|pthread_(cond|mutex|spin|"
        r"barrier|yield)|sem_(wait|post|timedwait)|sleep")),
]

_SHARD_PREFIX = "ulsocks::sim::ShardGroup::"


def qualified_name(symbol):
    """The qualified function name of a demangled symbol: no return type,
    parameter list, cv-qualifiers or clone suffix."""
    s = symbol.replace("(anonymous namespace)", "{anon}")
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or s[i - 1] == ":"):
            i += len("operator")
            if s.startswith("()", i):
                i += 2
            elif i < len(s) and s[i] == " ":
                i += 1
                while i < len(s) and (s[i].isalnum() or s[i] == "_"):
                    i += 1
            else:
                while i < len(s) and s[i] in "<>=!+-*/%^&|~[],":
                    i += 1
            continue
        c = s[i]
        if c == "(" and depth == 0:
            return s[start:i]
        if c in "<({[":
            depth += 1
        elif c in ">)}]":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        i += 1
    return s[start:]


def libc_bucket(name):
    base = name.split("+0x")[0]
    for bucket, pattern in LIBC_BUCKETS:
        if pattern.search(base):
            return bucket
    return "libc.other"


def attribute(frames):
    """(layer, shard part or None) of one sample.  `frames` lists
    (demangled name, is_library) innermost first."""
    leaf, leaf_in_library = frames[0]
    if leaf_in_library:
        return libc_bucket(leaf), None
    quals = [qualified_name(name) for name, _ in frames]
    for q in quals:
        if q == "ulsocks::check::Registry::run_all" or q.endswith(
                "::check_invariants"):
            return "check", None
    for (name, _), q in zip(frames, quals):
        if q.startswith("std::thread::_State_impl") and _SHARD_PREFIX in name:
            return "sim.shard", "wait"
        if q.startswith(_SHARD_PREFIX):
            member = q[len(_SHARD_PREFIX):].split("::")[0]
            return "sim.shard", SHARD_PARTS.get(member)
        if q.startswith("ulsocks::"):
            layer = NAMESPACE_LAYERS.get(q.split("::")[1])
            if layer is not None:
                return layer, None
    return "unattributed", None


class Symbols:
    """Program symbols of one binary, from `nm -C`."""

    def __init__(self, binary):
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                             check=True, capture_output=True, text=True).stdout
        self.addrs = []
        self.names = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWi":
                addr = int(parts[0], 16)
                if self.addrs and self.addrs[-1] == addr:
                    continue
                self.addrs.append(addr)
                self.names.append(parts[2])

    def name(self, offset):
        i = bisect.bisect_right(self.addrs, offset) - 1
        return self.names[i] if i >= 0 else "?"


def load_profile(path, binary):
    """Parse a profile into [(count, frames)], frames as attribute() takes
    them."""
    base = 0
    raw = []
    libs = {}
    with open(path) as f:
        header = f.readline().split()
        if header != ["ulsb-profile", "1"]:
            raise ValueError(f"{path}: not a ulsb profile")
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "base":
                base = int(rest, 16)
            elif kind == "stack":
                fields = rest.split()
                raw.append((int(fields[0]), [int(x, 16) for x in fields[1:]]))
            elif kind == "lib":
                pc, module, name = (rest.split(" ", 2) + ["?"])[:3]
                libs[int(pc, 16)] = f"{name} [{module}]"
    symbols = Symbols(binary)
    stacks = []
    for count, pcs in raw:
        frames = [(libs[pc], True) if pc in libs
                  else (symbols.name(pc - base), False) for pc in pcs]
        stacks.append((count, frames))
    return stacks


def summarize(stacks, top=5):
    """Per-layer sample counts, shard-part counts and top leaf functions."""
    layers = Counter()
    parts = Counter()
    functions = defaultdict(Counter)
    for count, frames in stacks:
        layer, part = attribute(frames)
        layers[layer] += count
        if part is not None:
            parts[part] += count
        leaf, in_library = frames[0]
        fn = (leaf.split("+0x")[0].rsplit(" [", 1)[0] if in_library
              else qualified_name(leaf))
        functions[layer][fn] += count
    tops = {layer: functions[layer].most_common(top) for layer in functions}
    return layers, parts, tops


def report(layers, parts, tops, out=sys.stdout):
    total = sum(layers.values()) or 1
    for layer in LAYERS:
        n = layers.get(layer, 0)
        if n == 0:
            continue
        print(f"  {layer:<14} {n / total:7.2%}  ({n} samples)", file=out)
        if layer == "sim.shard":
            for part in ("wait", "mailbox", "plan"):
                print(f"    {part:<12} {parts.get(part, 0) / total:7.2%}",
                      file=out)
        for fn, c in tops.get(layer, []):
            print(f"      {c / total:6.2%}  {fn[:110]}", file=out)


# Fixture stacks (innermost first) with the layer each must land in.
FIXTURES = [
    ("std::thread ShardGroup worker", [
        ("std::thread::_State_impl<std::thread::_Invoker<std::tuple<"
         "ulsocks::sim::ShardGroup::run_parallel(unsigned int)::{lambda()#1}"
         "> > >::_M_run()", False),
    ], ("sim.shard", "wait")),
    ("libstdc++ leaf", [
        ("std::_Rb_tree_increment(std::_Rb_tree_node_base const*) "
         "[libstdc++.so.6]", True),
    ], ("libc.other", None)),
    ("checker body", [
        ("ulsocks::emp::EmpEndpoint::check_invariants() const", False),
        ("std::_Function_handler<void (), ulsocks::emp::EmpEndpoint::"
         "EmpEndpoint(ulsocks::sim::Engine&)::{lambda()#1}>::_M_invoke("
         "std::_Any_data const&)", False),
        ("ulsocks::check::Registry::run_all() const", False),
        ("ulsocks::sim::Engine::run()", False),
    ], ("check", None)),
    ("inlined std:: code under a checker", [
        ("std::vector<int, std::allocator<int> >::size() const", False),
        ("ulsocks::sockets::EmpSocketStack::check_invariants() const", False),
        ("ulsocks::check::Registry::run_all() const", False),
    ], ("check", None)),
    ("libc allocator leaf", [
        ("__default_morecore+0x1a2 [libc.so.6]", True),
    ], ("libc.alloc", None)),
    ("libc copy leaf", [("memcpy [libc.so.6]", True)], ("libc.copy", None)),
    ("libc yield leaf", [("__sched_yield [libc.so.6]", True)],
     ("libc.sched", None)),
    ("anonymous-namespace function", [
        ("ulsocks::apps::(anonymous namespace)::handle_connection("
         "ulsocks::os::Process&, int, unsigned int, unsigned long&) "
         "[clone .actor]", False),
        ("ulsocks::sim::detail::resume_chain(std::__n4861::coroutine_handle"
         "<void>)", False),
    ], ("apps", None)),
    ("return type before the name", [
        ("ulsocks::sim::Task<void> ulsocks::tcp::TcpStack::deliver<int>("
         "int)", False),
    ], ("tcp", None)),
    ("std:: leaf under a layer", [
        ("void std::__introsort_loop<ulsocks::sim::ShardGroup::MailEntry*>("
         "ulsocks::sim::ShardGroup::MailEntry*)", False),
        ("ulsocks::sim::ShardGroup::deliver_mailboxes()", False),
    ], ("sim.shard", "mailbox")),
    ("engine", [
        ("ulsocks::sim::Engine::run_before(unsigned long)", False),
        ("ulsocks::sim::ShardGroup::run_shard(unsigned long)", False),
    ], ("sim.engine", None)),
    ("operator() of a lambda", [
        ("ulsocks::net::Link::transmit(ulsocks::net::Frame&&)::"
         "{lambda()#1}::operator()() const", False),
    ], ("net", None)),
    ("benchmark driver", [
        ("ulsocks::benchmark::(anonymous namespace)::Stream::verify("
         "std::span<unsigned char const, 18446744073709551615ul>)", False),
    ], ("bench", None)),
    ("no ulsocks frame", [("main", False)], ("unattributed", None)),
]


def self_test():
    failures = 0
    for label, frames, want in FIXTURES:
        got = attribute(frames)
        if got != want:
            failures += 1
            print(f"FAIL {label}: got {got}, want {want}")
    for layer in NAMESPACE_LAYERS.values():
        assert layer in LAYERS, layer
    print(f"attribute self-test: {len(FIXTURES) - failures}/{len(FIXTURES)} "
          "fixtures ok")
    return failures == 0


def main(argv):
    if argv[1:] != ["--self-test"]:
        print("usage: attribute.py --self-test", file=sys.stderr)
        return 2
    return 0 if self_test() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
