#!/usr/bin/env python3
"""End-to-end locsd benchmark: cst_local, csm_mix, session_churn.

Builds locsd, locs_cli and perfbench_tool from the checkout (into
.bench_build/), generates the livejournal-sim LFR stand-in for --seed,
times `locs_cli compile`, starts the real locsd on TCP loopback and drives
one workload closed-loop from this process: every client waits for its
reply before sending the next request, and every reply is checked.

  python3 perfbench/run.py --workload cst_local --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics; --trace 1 replays a fixed request
list through each layer in-process (perfbench_tool replay) and prints the
per-layer metrics. The last stdout line is the result object; earlier
lines are diagnostics. See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
DIGESTS = os.path.join(BUILD, "digests")
SPANS = os.path.join(BUILD, "spans")  # traced runs' span logs, kept
TOOL = os.path.join(BUILD, "perfbench_tool")
LOCSD = os.path.join(BUILD, "locs", "tools", "locsd")
LOCS_CLI = os.path.join(BUILD, "locs", "tools", "locs_cli")

GRAPH = "g"
# The LFR seed of the livejournal-sim recipe. The graph is the same for
# every --seed: across LFR realizations CSM cost alone moves qps by ~14%
# (IQR/median over seeds), which would drown the changes this benchmark
# exists to show. --seed picks the request streams.
GRAPH_SEED = 404
SETUP_REPEATS = 5     # locsd spawns per run; setup_s is their median
# Host memory contention comes in phases of tens of seconds that slow
# memory-bound work by up to 1.8x, and each vCPU has phases of its own. So
# the timed window is cut into SLICES equal slices, each on the next CPU
# set of the rotation (CpuRotation), and a timed `locs_cli compile` runs
# after every COMPILE_EVERY-th slice, on the next set again. compile_s is
# the median of those compiles and of the one that made the served image.
# Every metric thus samples the whole run and every CPU.
SLICES = 16
COMPILE_EVERY = 4
LOCSD_CACHE = 1024    # locsd's default --cache-entries
CHURN_REQUESTS_PER_CONN = 8
CHURN_RELOAD_EVERY = 500
CHURN_HOT_SET = 256

# Per workload: client sessions, CPUs the run is pinned to at a time
# (one per session that can be busy at once), locsd --cache-entries
# (None = locsd's default), warm-up requests per session (untimed; their
# replies are the run's digest), the latency percentile reported as
# tail_ms, and the request count per session of the traced replay.
WORKLOADS = {
    "cst_local": dict(sessions=2, cpus=2, cache=0, warmup=800, tail=99,
                      replay=300),
    "csm_mix": dict(sessions=1, cpus=1, cache=0, warmup=10, tail=90,
                    replay=30),
    "session_churn": dict(sessions=1, cpus=1, cache=None, warmup=1500,
                          tail=99, replay=1000),
}

END_TO_END = [
    ("qps", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
    ("cpu_ms_per_req", "ms"), ("rss_mb", "MB"), ("setup_s", "s"),
    ("compile_s", "s"),
]

PER_LAYER = [
    ("cst.expansion_s", "s"), ("cst.ns_per_visited", "ns"),
    ("cst.ns_per_scanned", "ns"), ("cst.core_s", "s"),
    ("cst.connectivity_s", "s"), ("cst.fallback_share", "ratio"),
    ("cst.visited", "count"), ("cst.scanned", "count"),
    ("core_index.negative_share", "ratio"),
    ("csm.expansion_s", "s"), ("csm.candidates_s", "s"), ("csm.core_s", "s"),
    ("csm.connectivity_s", "s"), ("csm.ns_per_visited", "ns"),
    ("multi.solve_ms", "ms"), ("multi.visited", "count"),
    ("session.bind_ms", "ms"), ("session.open_ms", "ms"),
    ("session.scratch_mb", "MB"),
    ("cache.hit_ratio", "ratio"), ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"), ("cache.evictions", "count"),
    ("wire.parse_us", "us"), ("transport.ping_rtt_us", "us"),
    ("serve.residual_us", "us"), ("admission.shed", "count"),
    ("registry.load_ms", "ms"), ("store.open_ms", "ms"),
    ("compile.parse_s", "s"), ("compile.index_s", "s"),
    ("compile.write_s", "s"), ("trace.overhead_pct", "%"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up failure: the run cannot produce a result."""


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no locs sources next to perfbench/ (expected "
                         "CMakeLists.txt and src/ in %s)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j3", "--target", "locsd",
                    "locs_cli", "perfbench_tool"],
                   check=True, stdout=sys.stderr)


def build_facts():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                         line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "-dumpfullversion"],
                                 capture_output=True, text=True).stdout
    except OSError:
        version = "?"
    return {"nproc": os.cpu_count(),
            "compiler": "%s %s" % (os.path.basename(compiler),
                                   version.strip()),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?")}


# ------------------------------------------------------------------ input

class Graph:
    """Degrees, core numbers and planted communities of
    the compiled image, by served id (LoadEdgeList renumbers vertices, so
    generator ids are not served ids)."""

    def __init__(self, core_path, labels_path, joined_path):
        with open(core_path) as f:
            header = f.readline().split()
            self.vertices, self.edges, self.degeneracy = map(int, header)
            self.degree = []
            self.core = []
            for line in f:
                d, c = line.split()
                self.degree.append(int(d))
                self.core.append(int(c))
        self.community = self._communities(labels_path)
        self.s = max(1, self.degeneracy // 10)
        with open(joined_path) as f:
            if int(f.readline()) != self.s:
                raise BenchError("joined communities are for another s")
            self.joined = {tuple(map(int, line.split())) for line in f}
        self.by_core = sorted(range(self.vertices),
                              key=lambda v: (-self.core[v], v))
        self.by_degree = sorted(range(self.vertices),
                                key=lambda v: (-self.degree[v], v))
        self._prefix = {}

    def _communities(self, path):
        """The labels of whichever endpoint numbering the image used:
        every degree must match."""
        with open(path) as f:
            rows = [line.split() for line in f]
        n = self.vertices
        for block in (rows[:n], rows[n:]):
            if [int(r[0]) for r in block] == self.degree:
                return [int(r[1]) for r in block]
        raise BenchError("community labels do not match the image")

    def _count(self, key, values, order, k):
        if (key, k) not in self._prefix:
            n = 0
            while n < len(order) and values[order[n]] >= k:
                n += 1
            if n == 0:
                raise BenchError("no vertex has %s >= %d" % (key, k))
            self._prefix[(key, k)] = n
        return self._prefix[(key, k)]

    def from_core(self, u, k):
        """The vertex at quantile u in [0, 1) of the k-core, ordered by
        core number."""
        n = self._count("core", self.core, self.by_core, k)
        return self.by_core[int(u * n)]

    def from_degree(self, u, k):
        """The vertex at quantile u of the vertices of degree >= k."""
        n = self._count("degree", self.degree, self.by_degree, k)
        return self.by_degree[int(u * n)]

    def unjoined_partner(self, u, rng):
        """A uniform s-core vertex whose planted community shares no
        s-core edge with u's (None after 1000 misses)."""
        cu = self.community[u]
        n = self._count("core", self.core, self.by_core, self.s)
        for _ in range(1000):
            w = self.by_core[rng.randrange(n)]
            cw = self.community[w]
            if cw != cu and (min(cu, cw), max(cu, cw)) not in self.joined:
                return w
        return None


class Quantiles:
    """Golden-ratio low-discrepancy sequence with a random start: each
    value is uniform on [0, 1), and any run of them covers [0, 1) evenly,
    so a short timed window still draws a representative spread of core
    numbers (stratified sampling)."""

    STEP = 0.6180339887498949

    def __init__(self, rng):
        self.u = rng.random()

    def next(self):
        self.u = (self.u + self.STEP) % 1.0
        return self.u


def timed(argv):
    """Runs argv; returns (its wall seconds, its stdout)."""
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(argv[0]),
                                                 done.returncode,
                                                 done.stderr.strip()))
    return elapsed, done.stdout


def compile_image(edges, image):
    """Times one `locs_cli compile` of the edge list to a fresh image."""
    if os.path.exists(image):
        os.remove(image)
    return timed([LOCS_CLI, "compile", edges, image])[0]


def prepare_input(scale):
    """Edge list -> image (one timed compile) -> core info of served ids."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    edges = os.path.join(WORK, "g.txt")
    image = os.path.join(WORK, "g.limg")
    labels = os.path.join(WORK, "labels.txt")
    joined = os.path.join(WORK, "joined.txt")
    timed([TOOL, "gen", "--seed=%d" % GRAPH_SEED, "--scale=%g" % scale,
           "--out=" + edges, "--labels=" + labels, "--joined=" + joined])
    compile_s = compile_image(edges, image)
    info = os.path.join(WORK, "core.txt")
    timed([TOOL, "coreinfo", "--image=" + image, "--out=" + info])
    graph = Graph(info, labels, joined)
    return edges, image, graph, compile_s


# --------------------------------------------------------------- requests

class Req:
    __slots__ = ("line", "kind", "v", "k", "seeds")

    def __init__(self, line, kind, v=None, k=None, seeds=None):
        self.line = line
        self.kind = kind
        self.v = v
        self.k = k
        self.seeds = seeds


NEW_CONN = "new-connection"


def cst_local_req(graph, rng):
    k = graph.s * rng.randint(3, 8)
    if rng.random() < 0.75:
        v = graph.from_core(rng.random(), k)
    else:
        v = graph.from_degree(rng.random(), k)
    return Req("CST %s %d %d limit=1" % (GRAPH, v, k), "CST", v=v, k=k)


def stream_cst_local(graph, rng, image):
    while True:
        yield cst_local_req(graph, rng)


# csm_mix cycles this fixed 40/40/20 interleaving (k in units of s), so
# every window holds the mix and qps does not swing with how many slow
# CSM requests a short window happened to draw.
CSM_MIX_PATTERN = (("CSM", 0), ("CST", 1), ("MULTI", 1), ("CSM", 0),
                   ("CST", 2), ("CSM", 0), ("CST", 1), ("MULTI", 1),
                   ("CSM", 0), ("CST", 2))


def stream_csm_mix(graph, rng, image):
    csm, cst, multi = Quantiles(rng), Quantiles(rng), Quantiles(rng)
    while True:
        for kind, multiple in CSM_MIX_PATTERN:
            k = graph.s * multiple
            if kind == "CSM":
                v = graph.by_core[int(csm.next() * graph.vertices)]
                yield Req("CSM %s %d limit=1" % (GRAPH, v), "CSM", v=v)
            elif kind == "CST":
                v = graph.from_core(cst.next(), k)
                yield Req("CST %s %d %d limit=1" % (GRAPH, v, k), "CST",
                          v=v, k=k)
            else:
                # Seeds of two planted communities that share no s-core
                # edge: each query must span the s-core component, so
                # MULTI latency is one mode rather than a cheap/expensive
                # mixture that would make the median jump between runs.
                w = None
                for _ in range(100):
                    u = graph.from_core(multi.next(), k)
                    w = graph.unjoined_partner(u, rng)
                    if w is not None:
                        break
                if w is None:
                    raise BenchError("no unjoined community pair in the "
                                     "%d-core" % k)
                yield Req("MULTI %s %d %d %d limit=1" % (GRAPH, k, u, w),
                          "MULTI", k=k, seeds=(u, w))


def stream_session_churn(graph, rng, image):
    hot = [cst_local_req(graph, rng) for _ in range(CHURN_HOT_SET)]
    zipf = list(itertools.accumulate(1.0 / (rank + 1)
                                     for rank in range(CHURN_HOT_SET)))
    sent = 0
    while True:
        yield NEW_CONN
        for _ in range(CHURN_REQUESTS_PER_CONN):
            sent += 1
            if sent % CHURN_RELOAD_EVERY == 0:
                yield Req("LOADIMG %s %s" % (GRAPH, image), "LOADIMG")
            elif rng.random() < 0.5:
                yield rng.choices(hot, cum_weights=zipf)[0]
            else:
                yield cst_local_req(graph, rng)


STREAMS = {"cst_local": stream_cst_local, "csm_mix": stream_csm_mix,
           "session_churn": stream_session_churn}


def streams(workload, graph, seed, image):
    """One deterministic request stream per client session."""
    make = STREAMS[workload]
    return [make(graph, random.Random("%s/%d/%d" % (workload, seed, i)),
                 image)
            for i in range(WORKLOADS[workload]["sessions"])]


# ---------------------------------------------------------------- checking

def fields(reply):
    out = {}
    for token in reply.split()[1:]:
        key, _, value = token.partition("=")
        out[key] = value
    return out


class Checker:
    """The correctness gate: every reply against the image's cores."""

    def __init__(self, graph, corrupt=False):
        self.graph = graph
        self.core = list(graph.core)
        # Self-test: falsify the expected core number of the first CST
        # vertex checked, which must trip the gate.
        self.corrupt = corrupt
        self.mismatches = []

    def bad(self, req, reply, why):
        if len(self.mismatches) < 10:
            self.mismatches.append("%s -> %s: %s" % (req.line, reply[:120],
                                                     why))
        else:
            self.mismatches.append(why)

    def check(self, req, reply):
        """False when the reply is a failed operation (ERR/BUSY)."""
        if not reply.startswith("OK"):
            return False
        core = self.core
        if self.corrupt and req.kind == "CST":
            self.corrupt = False
            core[req.v] = req.k - 1 if core[req.v] >= req.k else req.k
        f = fields(reply)
        try:
            if req.kind == "CST":
                found = f["status"] == "found"
                if f["status"] not in ("found", "not-exists"):
                    self.bad(req, reply, "unexpected status")
                elif found != (core[req.v] >= req.k):
                    self.bad(req, reply, "found != (core %d >= k)" %
                             core[req.v])
                elif found and int(f["delta"]) < req.k:
                    self.bad(req, reply, "delta < k")
            elif req.kind == "CSM":
                if f["status"] != "found" or int(f["delta"]) != core[req.v]:
                    self.bad(req, reply, "delta != core %d" % core[req.v])
            elif req.kind == "MULTI":
                found = f["status"] == "found"
                if f["status"] not in ("found", "not-exists"):
                    self.bad(req, reply, "unexpected status")
                elif found and (int(f["delta"]) < req.k or
                                any(core[s] < req.k for s in req.seeds)):
                    self.bad(req, reply, "found with delta or a seed < k")
            elif req.kind == "LOADIMG":
                if (int(f["vertices"]) != self.graph.vertices or
                        int(f["edges"]) != self.graph.edges):
                    self.bad(req, reply, "image size mismatch")
            elif req.kind == "QUIT":
                if reply != "OK bye":
                    self.bad(req, reply, "bad QUIT reply")
        except (KeyError, ValueError):
            self.bad(req, reply, "malformed reply")
        return True

    def check_stats(self, stats):
        f = fields(stats)
        ledger = (int(f["q_completed"]) + int(f["q_failed"]) +
                  int(f["q_shed"]))
        if int(f["q_attempted"]) != ledger:
            self.mismatches.append("STATS ledger: q_attempted %s != %d" %
                                   (f["q_attempted"], ledger))
        return f


LOAD_TIMING = re.compile(r" (load_ms|build_ms)=\d+")


class Digest:
    """Hashes of the warm-up requests and of their (masked) replies."""

    def __init__(self):
        self.requests = hashlib.sha256()
        self.replies = hashlib.sha256()
        self.count = 0

    def add(self, request, reply):
        self.requests.update(request.encode() + b"\n")
        self.replies.update(LOAD_TIMING.sub(r" \1=*", reply).encode() + b"\n")
        self.count += 1


# ------------------------------------------------------------------ daemon

class Daemon:
    def __init__(self, cache):
        port_file = os.path.join(WORK, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        argv = [LOCSD, "--port=0", "--port-file=" + port_file]
        if cache is not None:
            argv.append("--cache-entries=%d" % cache)
        self.started = time.perf_counter()
        self.errlog = open(os.path.join(WORK, "locsd.log"), "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=self.errlog, stderr=self.errlog)
        deadline = self.started + 30
        self.port = None
        try:
            while self.port is None:
                if self.proc.poll() is not None:
                    raise BenchError("locsd exited with %d" %
                                     self.proc.returncode)
                if time.perf_counter() > deadline:
                    raise BenchError("locsd did not publish a port")
                try:
                    with open(port_file) as f:
                        self.port = int(f.read().strip())
                except (OSError, ValueError):
                    time.sleep(0.0005)
        except BaseException:
            self.stop()
            raise

    def proc_stat(self):
        """(utime + stime in clock ticks) of locsd."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            parts = f.read().rsplit(")", 1)[1].split()
        return int(parts[11]) + int(parts[12])

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for locsd")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.errlog.close()


class Conn:
    """One lockstep client connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        """A complete buffered reply line, or None."""
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        line = self.buf[:nl].decode()
        self.buf = self.buf[nl + 1:]
        return line

    def fill(self):
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("locsd closed the connection")
        self.buf += data

    def call(self, line):
        self.send(line)
        reply = self.read_line()
        while reply is None:
            self.fill()
            reply = self.read_line()
        return reply

    def close(self):
        self.sock.close()


def setup_daemon(workload, image, checker):
    """SETUP_REPEATS spawns; returns the last (kept) daemon and setup_s."""
    times = []
    daemon = None
    for i in range(SETUP_REPEATS):
        daemon = Daemon(WORKLOADS[workload]["cache"])
        try:
            conn = Conn(daemon.port)
            reply = conn.call("LOADIMG %s %s" % (GRAPH, image))
            times.append(time.perf_counter() - daemon.started)
            if not reply.startswith("OK") or not checker.check(
                    Req("LOADIMG", "LOADIMG"), reply):
                raise BenchError("LOADIMG failed: " + reply)
            conn.close()
        except BaseException:
            daemon.stop()
            raise
        if i + 1 < SETUP_REPEATS:
            daemon.stop()
    return daemon, statistics.median(times)


# ------------------------------------------------------------------ client

QUIT = Req("QUIT", "QUIT")


class Session:
    """A closed-loop client: one request in flight, next sent on reply."""

    def __init__(self, index, stream, port, record):
        self.index = index
        self.stream = stream
        self.port = port
        self.record = record  # record(req, reply, sent_ns, received_ns)
        self.conn = None
        self.req = None
        self.sent = 0
        self.reconnect = False

    def connect(self, sel):
        if self.conn is not None:
            sel.unregister(self.conn.sock)
            self.conn.close()
        self.conn = Conn(self.port)
        sel.register(self.conn.sock, selectors.EVENT_READ, self)

    def issue(self, req):
        self.req = req
        self.sent = time.perf_counter_ns()
        self.conn.send(req.line)

    def advance(self, sel):
        """Sends the next request of the stream (a QUIT first when the
        stream starts a new connection)."""
        item = next(self.stream)
        if item is NEW_CONN:
            if self.conn is not None:
                self.reconnect = True
                self.issue(QUIT)
                return
            item = next(self.stream)
        if self.conn is None:
            self.connect(sel)
        self.issue(item)

    def on_reply(self, sel, reply):
        """Records the reply; False when the reply ended a QUIT that opens
        the next connection (the request after it is already sent)."""
        self.record(self.req, reply, self.sent, time.perf_counter_ns())
        if self.req is QUIT and self.reconnect:
            self.reconnect = False
            self.connect(sel)
            self.issue(next(self.stream))
            return False
        return True

    def close(self):
        if self.conn is not None:
            try:
                self.conn.call("QUIT")
            except OSError:
                pass
            self.conn.close()
            self.conn = None


def drive(sessions, until_count=None, until_time=None):
    """Runs the sessions closed-loop until each has sent `until_count`
    requests, or until `until_time` (perf_counter seconds); requests in
    flight at the end are completed. Returns the time of the last reply."""
    sel = selectors.DefaultSelector()
    issued = {s.index: 0 for s in sessions}
    last = time.perf_counter()

    def more(s):
        if until_count is not None:
            return issued[s.index] < until_count
        return time.perf_counter() < until_time

    def send(s):
        s.advance(sel)
        if s.req is not QUIT:
            issued[s.index] += 1

    active = 0
    try:
        for s in sessions:
            if s.conn is not None:
                sel.register(s.conn.sock, selectors.EVENT_READ, s)
            if more(s):
                send(s)
                active += 1
        while active > 0:
            for key, _ in sel.select():
                s = key.data
                try:
                    s.conn.fill()
                    reply = s.conn.read_line()
                except OSError as e:
                    # A transport failure is a failed request; the session
                    # carries on over a new connection.
                    reply = "ERR transport %s" % e
                    s.connect(sel)
                if reply is None:
                    continue
                last = time.perf_counter()
                if not s.on_reply(sel, reply):
                    issued[s.index] += 1
                elif more(s):
                    send(s)
                else:
                    sel.unregister(s.conn.sock)
                    active -= 1
    finally:
        sel.close()
    return last


def nearest_rank(sorted_values, pct):
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def steal_ticks():
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    return int(cpu[8])


# ------------------------------------------------------------------- runs

def run_end_to_end(workload, seed, seconds, scale, corrupt, pins):
    spec = WORKLOADS[workload]
    edges, image, graph, first_compile = prepare_input(scale)
    compiles = [first_compile]
    checker = Checker(graph, corrupt)
    daemon, setup_s = setup_daemon(workload, image, checker)
    try:
        digest = Digest()
        counts = {"attempted": 0, "failed": 0, "ok": 0}
        latencies = []
        by_kind = {}
        timing = {"on": False}

        def record(req, reply, sent, received):
            ok = checker.check(req, reply)
            if req.kind == "QUIT":
                return
            if not timing["on"]:
                digest.add(req.line, reply)
                return
            counts["attempted"] += 1
            if ok:
                counts["ok"] += 1
                latencies.append((received - sent) / 1e6)
                by_kind.setdefault(req.kind, []).append(latencies[-1])
            else:
                counts["failed"] += 1

        warmup = max(1, int(spec["warmup"] * min(1.0, scale * 4)))
        sessions = [Session(i, stream, daemon.port, record)
                    for i, stream in enumerate(
                        streams(workload, graph, seed, image))]
        drive(sessions, until_count=warmup)
        timing["on"] = True
        # The served image stays in place: session_churn reloads it.
        spare = os.path.join(WORK, "compiled.limg")
        elapsed, cpu_ticks, steal = 0.0, 0, 0
        for i in range(SLICES):
            pins.use(i, daemon)
            steal0 = steal_ticks()
            cpu0 = daemon.proc_stat()
            start = time.perf_counter()
            end = drive(sessions, until_time=start + seconds / SLICES)
            cpu_ticks += daemon.proc_stat() - cpu0
            steal += steal_ticks() - steal0
            elapsed += end - start
            if (i + 1) % COMPILE_EVERY == 0:
                pins.use(len(compiles))
                compiles.append(compile_image(edges, spare))
        stats_conn = Conn(daemon.port)
        for s in sessions:
            s.close()
        stats = checker.check_stats(stats_conn.call("STATS"))
        stats_conn.call("QUIT")
        stats_conn.close()
        rss_mb = daemon.vm_hwm_mb()
    finally:
        daemon.stop()

    check_digest(workload, digest, checker)
    latencies.sort()
    if not latencies:
        raise BenchError("no successful request in the timed window")
    tail, beyond = nearest_rank(latencies, spec["tail"])
    tick_ms = 1000.0 / os.sysconf("SC_CLK_TCK")
    completed = max(1, counts["ok"])
    metrics = {
        "qps": counts["ok"] / elapsed,
        "p50_ms": nearest_rank(latencies, 50)[0],
        "tail_ms": tail,
        "cpu_ms_per_req": cpu_ticks * tick_ms / completed,
        "rss_mb": rss_mb,
        "setup_s": setup_s,
        "compile_s": statistics.median(compiles),
    }
    diagnostics = dict(build_facts(), workload=workload, seed=seed,
                       vertices=graph.vertices, edges=graph.edges,
                       degeneracy=graph.degeneracy, s=graph.s,
                       steal_ticks=steal, window_s=elapsed,
                       cpu_sets=pins.sets, slices=SLICES,
                       compiles=len(compiles),
                       samples=len(latencies),
                       tail_percentile=spec["tail"],
                       tail_samples_beyond=beyond,
                       p50_samples_beyond=len(latencies) - (
                           -(-len(latencies) * 50 // 100)),
                       warmup_requests=digest.count,
                       digest=digest.replies.hexdigest()[:16],
                       q_shed=int(stats["q_shed"]),
                       rejected=int(stats["rejected"]),
                       cache_hits=int(stats["cache_hits"]),
                       kinds={kind: {"n": len(v),
                                     "p50_ms": statistics.median(v)}
                              for kind, v in sorted(by_kind.items())})
    print(json.dumps({"diagnostics": diagnostics}))
    return metrics, counts, checker


def check_digest(workload, digest, checker):
    """Replies to the same warm-up requests must match across runs (the
    requests are a function of the seed and of the served graph)."""
    os.makedirs(DIGESTS, exist_ok=True)
    path = os.path.join(DIGESTS, "%s-%s" % (
        workload, digest.requests.hexdigest()[:24]))
    value = digest.replies.hexdigest()
    if os.path.exists(path):
        with open(path) as f:
            if f.read().strip() != value:
                checker.mismatches.append(
                    "reply digest differs from an earlier run of this seed")
    else:
        with open(path, "w") as f:
            f.write(value + "\n")


def replay_list(workload, graph, seed, image, per_session):
    """Fixed request list of the traced run: (connection, Req) in replay
    order, sessions interleaved, every connection ending with QUIT."""
    lists = []
    next_conn = 0
    for stream in streams(workload, graph, seed, image):
        items = []
        conn = None
        while len(items) < per_session or items[-1][1] is QUIT:
            item = next(stream)
            if item is NEW_CONN:
                if conn is not None:
                    items.append((conn, QUIT))
                conn = None
                continue
            if conn is None:
                conn = next_conn
                next_conn += 1
            items.append((conn, item))
        items.append((conn, QUIT))
        lists.append(items)
    out = []
    for j in range(max(len(items) for items in lists)):
        for items in lists:
            if j < len(items):
                out.append(items[j])
    return out


def run_traced(workload, seed, scale, corrupt):
    spec = WORKLOADS[workload]
    edges, image, graph, _ = prepare_input(scale)
    items = replay_list(workload, graph, seed, image,
                        max(8, int(spec["replay"] * min(1.0, scale * 4))))
    requests = os.path.join(WORK, "requests.tsv")
    with open(requests, "w") as f:
        for conn, req in items:
            f.write("%d\t%s\n" % (conn, req.line))
    checker = Checker(graph, corrupt)

    # Untraced client round trips of the same list, against a fresh locsd
    # (same connections, same order), plus transport and open probes.
    daemon = Daemon(spec["cache"])
    rtt_us = [None] * len(items)
    failed = 0
    try:
        conns = {}
        setup = Conn(daemon.port)
        checker.check(Req("LOADIMG", "LOADIMG"),
                      setup.call("LOADIMG %s %s" % (GRAPH, image)))
        for i, (conn, req) in enumerate(items):
            if conn not in conns:
                conns[conn] = Conn(daemon.port)
            c = conns[conn]
            t0 = time.perf_counter_ns()
            reply = c.call(req.line)
            rtt_us[i] = (time.perf_counter_ns() - t0) / 1e3
            if not checker.check(req, reply):
                failed += 1
            if req.kind == "QUIT":
                c.close()
                del conns[conn]
        pings = []
        for _ in range(200):
            t0 = time.perf_counter_ns()
            if setup.call("PING") != "OK pong":
                failed += 1
            pings.append((time.perf_counter_ns() - t0) / 1e3)
        opens = []
        for _ in range(20):
            t0 = time.perf_counter_ns()
            c = Conn(daemon.port)
            if c.call("PING") != "OK pong":
                failed += 1
            opens.append((time.perf_counter_ns() - t0) / 1e6)
            c.call("QUIT")
            c.close()
        stats = checker.check_stats(setup.call("STATS"))
        setup.call("QUIT")
        setup.close()
    finally:
        daemon.stop()

    _, phases_out = timed([TOOL, "compile-phases", "--input=" + edges,
                           "--out=" + os.path.join(WORK, "phases.limg")])
    compile_phases = json.loads(phases_out)
    cache = spec["cache"] if spec["cache"] is not None else LOCSD_CACHE
    os.makedirs(SPANS, exist_ok=True)
    spans = os.path.join(SPANS, "%s-%d.tsv" % (workload, seed))
    _, replay_out = timed([TOOL, "replay", "--image=" + image,
                           "--requests=" + requests,
                           "--cache-entries=%d" % cache,
                           "--spans-out=" + spans])
    replay = json.loads(replay_out)
    if replay["partition_error_ns"] > 1000:
        checker.mismatches.append(
            "stage self-times do not partition request time (%d ns off)" %
            replay["partition_error_ns"])
    residual = [rtt_us[i] - replay["request_ns"][i] / 1e3
                for i in range(len(items))]
    metrics = dict(replay["metrics"])
    metrics.update({
        "session.open_ms": statistics.median(opens),
        "transport.ping_rtt_us": statistics.median(pings),
        "serve.residual_us": statistics.median(residual),
        "admission.shed": int(stats["q_shed"]) + int(stats["rejected"]),
        "compile.parse_s": compile_phases["parse_s"],
        "compile.index_s": compile_phases["index_s"],
        "compile.write_s": compile_phases["write_s"],
    })
    diagnostics = dict(build_facts(), workload=workload, seed=seed,
                       cpus=sorted(os.sched_getaffinity(0)),
                       replay_requests=len(items), binds=replay["binds"],
                       partition_error_ns=replay["partition_error_ns"],
                       pass_off_s=replay["pass_off_s"],
                       pass_on_s=replay["pass_on_s"],
                       stage_self_s=replay["stage_self_s"])
    print(json.dumps({"diagnostics": diagnostics}))
    counts = {"attempted": len(items), "failed": failed}
    return metrics, counts, checker


def emit(metrics, units, counts, checker):
    for m in checker.mismatches[:10]:
        log("correctness: " + m)
    result = {
        "correct": not checker.mismatches,
        "attempted": int(max(1, counts["attempted"])),
        "failed": int(counts["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


class CpuRotation:
    """Pins the run to `count` CPUs at a time. A lockstep round trip across
    idle vCPUs pays a host wake-up on every hop: unpinned, host steal moved
    session_churn qps between 280 and 520 in back-to-back runs of one seed;
    pinned, the same runs read 499-509. But one vCPU alone rides its own
    contention phases (10 s medians of one MULTI request differed by up to
    1.5x between vCPUs at the same time), so the timed window rotates
    through sets that use every CPU equally, highest-numbered first."""

    def __init__(self, count):
        cpus = sorted(os.sched_getaffinity(0), reverse=True)
        self.sets = [sorted({cpus[(i + j) % len(cpus)] for j in range(count)})
                     for i in range(len(cpus))]

    def use(self, index, daemon=None):
        """Pins this process (and so the tools it starts next) and every
        thread of `daemon` to set `index` (mod the number of sets)."""
        cpus = self.sets[index % len(self.sets)]
        os.sched_setaffinity(0, cpus)
        if daemon is not None:
            tasks = "/proc/%d/task" % daemon.proc.pid
            for tid in os.listdir(tasks):
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except ProcessLookupError:
                    pass  # the thread has exited


def run_once(args):
    build()
    pins = CpuRotation(WORKLOADS[args.workload]["cpus"])
    pins.use(0)
    log("CPU sets %s" % pins.sets)
    if args.trace:
        metrics, counts, checker = run_traced(
            args.workload, args.seed, args.scale, args.corrupt_oracle)
        units = PER_LAYER
    else:
        metrics, counts, checker = run_end_to_end(
            args.workload, args.seed, args.seconds, args.scale,
            args.corrupt_oracle, pins)
        units = END_TO_END
    code = emit(metrics, units, counts, checker)
    shutil.rmtree(WORK, ignore_errors=True)
    return code


def smoke():
    """Tiny runs of every workload, traced and not; then a corrupted
    oracle value must fail the correctness gate."""
    me = [sys.executable, os.path.abspath(__file__)]
    base = ["--seed", "7", "--seconds", "1", "--scale", "0.05"]
    problems = []
    for workload in WORKLOADS:
        for trace, units in (("0", END_TO_END), ("1", PER_LAYER)):
            done = subprocess.run(me + ["--workload", workload, "--trace",
                                        trace] + base,
                                  capture_output=True, text=True)
            label = "%s trace=%s" % (workload, trace)
            if done.returncode != 0:
                problems.append("%s exited %d: %s" % (
                    label, done.returncode, done.stderr[-2000:]))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: %r" % (label, result))
            for name, unit in units:
                got = result["metrics"].get(name)
                if (got is None or got.get("unit") != unit or
                        not isinstance(got.get("value"), (int, float))):
                    problems.append("%s: metric %s missing or without "
                                    "unit %s" % (label, name, unit))
            log("smoke: %s ok" % label)
    done = subprocess.run(me + ["--workload", "cst_local", "--trace", "0",
                                "--corrupt-oracle"] + base,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or not lines or json.loads(
            lines[-1]).get("correct") is not False:
        problems.append("a corrupted expected value did not fail the gate")
    else:
        log("smoke: corrupted oracle rejected")
    for p in problems:
        log("smoke FAILED: " + p)
    print("smoke %s" % ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph size relative to livejournal-sim")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="falsify one expected core number (self-test)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own self-test")
    args = parser.parse_args()
    try:
        if args.smoke:
            build()
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        return run_once(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
