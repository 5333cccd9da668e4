//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service workload, service_overload: a forked `snslpd --shards=2
/// --workers=2` driven over TCP by an open-loop Poisson client of this
/// process (one sender and one receiver thread, two connections) at 12000
/// req/s, every module fresh, about 1.5x the cold-compile capacity. It
/// loads admission control, shedding and compile throughput; it has no
/// cache hits. A traced run adds a light-load phase on a daemon of its own
/// (3000 req/s, 90% from a pre-warmed hot pool of 32 modules), which loads
/// the reactor, routing, the shard queue and cache hits (see kMixed).
///
/// A fresh module is one of 1024 seeded base modules whose function is
/// renamed to a never-used name: new bytes, so a cache miss and a full
/// compile, but generated without per-request cost in the sender. The hot
/// pool is the same in every run (see kHotPoolSeed). Each request is
/// framed by Protocol's writeFrame, as by snslp-client and snslp-loadgen.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Trace.h"

#include "fuzz/DiffOracle.h"
#include "fuzz/IRGenerator.h"
#include "ir/IRPrinter.h"
#include "ir/Parser.h"
#include "service/CompileService.h"
#include "service/Protocol.h"
#include "support/RNG.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <csignal>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

using namespace snbench;
using namespace snslp;
using namespace snslp::service;

namespace {

constexpr unsigned kHotPool = 32;
constexpr unsigned kBasePool = 1024;
/// The hot pool is the same 32 modules whatever the seed: the set-up
/// compiles it, so its cost must not change with the seed. The seed decides
/// the schedule, the fresh modules and the data the answers are checked on.
constexpr uint64_t kHotPoolSeed = 1;
/// Set-ups before the timed phases, and as many again after them.
constexpr unsigned kSetupRepeats = 8;
/// Length of the untimed warm-up at the workload's own load.
constexpr double kWarmupSeconds = 2.0;
/// Length of the traced run's one-segment phase (see sendFrame).
constexpr double kOneSegmentSeconds = 2.0;
/// Segments of the untraced phase, and the set-ups in each pause between
/// two of them, each on a daemon of its own (see runService).
constexpr unsigned kSegments = 8;
constexpr unsigned kSetupsPerPause = 2;
/// One fresh request in this many asks for its body, which is re-run
/// against the reference interpreter after the run (at most kMaxChecks).
constexpr unsigned kBodySample = 32;
constexpr unsigned kMaxChecks = 48;
const char kFreshStem[] = "fresh_";
constexpr int kFreshDigits = 12;

struct WorkloadShape {
  double Rate;
  double HotShare;
  bool ShedIsFailure;
};

/// The workload: every module fresh, about 1.5x the cold-compile capacity.
constexpr WorkloadShape kOverload = {12000, 0.0, false};
/// The traced run's light-load phase: 90% hot, below saturation, so a hit's
/// latency is the reactor, routing, shard queue and cache-hit path. It is
/// not timed for an end-to-end metric: at this load the latency is mostly
/// thread wake-ups, and on a shared virtual machine their cost follows the
/// host (the median went from 0.11-0.14 ms to 0.8-0.9 ms when the
/// hypervisor's steal time reached 13-15%).
constexpr WorkloadShape kMixed = {3000, 0.9, true};
constexpr double kMixedWarmupSeconds = 1.0;
constexpr double kMixedSeconds = 5.0;

void sleepUntil(uint64_t AbsNanos) {
  struct timespec TS;
  TS.tv_sec = static_cast<time_t>(AbsNanos / 1000000000ull);
  TS.tv_nsec = static_cast<long>(AbsNanos % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &TS, nullptr) ==
         EINTR)
    ;
}

/// Writes one frame with Protocol's writeFrame. With \p OneSegment the
/// frame leaves as one TCP segment (TCP_CORK around the call), as from a
/// client that buffers its output; plain writeFrame sends the 8-byte header
/// and the payload as two. snslpd keeps Nagle's algorithm on the sockets
/// it accepts, so a one-segment client's answer can wait for that client's
/// next segment to acknowledge the previous answer. The timed phases send
/// plainly, as snslp-client and snslp-loadgen do; the traced run measures a
/// one-segment client too (client.onesegment_hit_p50_ms).
bool sendFrame(int Fd, const std::string &Payload, bool OneSegment,
               std::string &Err) {
  if (!OneSegment)
    return writeFrame(Fd, Payload, &Err);
  int On = 1, Off = 0;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_CORK, &On, sizeof(On));
  const bool Ok = writeFrame(Fd, Payload, &Err);
  ::setsockopt(Fd, IPPROTO_TCP, TCP_CORK, &Off, sizeof(Off));
  return Ok;
}

//===----------------------------------------------------------------------===//
// The daemon process
//===----------------------------------------------------------------------===//

class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::string &Path, std::string &Err) {
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      Err = "pipe failed";
      return false;
    }
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(Pipe[1], 1);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      const char *Argv[] = {Path.c_str(), "--tcp-port=0", "--shards=2",
                            "--workers=2", nullptr};
      ::execv(Path.c_str(), const_cast<char *const *>(Argv));
      ::_exit(127);
    }
    ::close(Pipe[1]);
    // Read stdout until the listening line names the port.
    std::string Out;
    const std::string Marker = "listening on tcp 127.0.0.1:";
    uint64_t Deadline = nowNanos() + 20000000000ull;
    while (Out.find('\n', Out.find(Marker)) == std::string::npos ||
           Out.find(Marker) == std::string::npos) {
      struct pollfd P{Pipe[0], POLLIN, 0};
      if (nowNanos() > Deadline || ::poll(&P, 1, 1000) < 0)
        break;
      char Buf[256];
      ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
      if (N <= 0 && !(N < 0 && errno == EINTR))
        break;
      if (N > 0)
        Out.append(Buf, static_cast<size_t>(N));
    }
    ::close(Pipe[0]);
    size_t At = Out.find(Marker);
    if (At == std::string::npos) {
      Err = "snslpd did not report a TCP port";
      return false;
    }
    Port = std::atoi(Out.c_str() + At + Marker.size());
    return Port > 0;
  }

  int connect(std::string &Err) const {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_port = htons(static_cast<uint16_t>(Port));
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (Fd < 0 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
      Err = std::string("connect: ") + std::strerror(errno);
      if (Fd >= 0)
        ::close(Fd);
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return Fd;
  }

  /// SIGTERM (the daemon drains and exits 0), SIGKILL after 10 s.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    uint64_t Deadline = nowNanos() + 10000000000ull;
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (nowNanos() > Deadline) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(2000);
    }
    Pid = -1;
  }

  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
  int Port = 0;
};

/// Sends one request and reads its answer on an idle connection.
bool roundTrip(int Fd, const std::string &Payload, ServiceResponse &Resp,
               std::string &Err) {
  std::string Raw;
  return writeFrame(Fd, Payload, &Err) && readFrame(Fd, Raw, &Err) &&
         decodeResponse(Raw, Resp, &Err);
}

/// Per-shard counters from `stats: 1`, keyed "shard <i> <name>".
std::map<std::string, double> scrapeStats(int Fd, Report &R) {
  ServiceRequest Req;
  Req.StatsOnly = true;
  ServiceResponse Resp;
  std::string Err;
  std::map<std::string, double> Out;
  if (!roundTrip(Fd, encodeRequest(Req), Resp, Err) || !Resp.Ok) {
    R.fail("service: stats request failed: " + Err);
    return Out;
  }
  std::istringstream IS(Resp.Body);
  std::string Line;
  while (std::getline(IS, Line)) {
    size_t Colon = Line.rfind(": ");
    if (Colon != std::string::npos)
      Out[Line.substr(0, Colon)] = std::strtod(Line.c_str() + Colon + 2,
                                               nullptr);
  }
  return Out;
}

double sumCounter(const std::map<std::string, double> &S,
                  const std::string &Name) {
  double Sum = 0;
  for (const auto &[Key, V] : S)
    if (Key.size() > Name.size() &&
        Key.compare(Key.size() - Name.size(), Name.size(), Name) == 0 &&
        Key[Key.size() - Name.size() - 1] == ' ')
      Sum += V;
  return Sum;
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

struct Corpus {
  std::unique_ptr<Context> Ctx = std::make_unique<Context>();
  std::unique_ptr<Module> M = std::make_unique<Module>(*Ctx, "corpus");
  std::vector<fuzz::GeneratedProgram> Hot, Base;
  std::vector<std::string> HotText;
  std::vector<std::string> HotPayload[2]; ///< Encoded requests, [want-body].
  /// Encoded requests of the base modules, [want-body], with the offset
  /// of the function-name digits to patch per fresh request.
  std::vector<std::string> BasePayload[2];
  std::vector<size_t> DigitsAt[2];
};

std::string encodeModule(const std::string &Text, bool WantBody) {
  ServiceRequest Req;
  Req.Mode = VectorizerMode::SNSLP;
  Req.ModuleText = Text;
  Req.WantBody = WantBody;
  return encodeRequest(Req);
}

std::unique_ptr<Corpus> buildCorpus(uint64_t Seed) {
  auto C = std::make_unique<Corpus>();
  fuzz::IRGenerator Gen(*C->M);
  for (unsigned I = 0; I < kHotPool; ++I) {
    C->Hot.push_back(Gen.generate("hot" + std::to_string(I),
                                  kHotPoolSeed * 0x9e3779b97f4a7c15ULL + I));
    C->HotText.push_back(toString(*C->Hot.back().F));
    for (int W = 0; W < 2; ++W)
      C->HotPayload[W].push_back(encodeModule(C->HotText.back(), W));
  }
  const std::string Placeholder =
      kFreshStem + std::string(kFreshDigits, '0');
  for (unsigned I = 0; I < kBasePool; ++I) {
    // The base module is generated under its own name; the request text
    // carries the placeholder name, patched per request.
    const std::string Name = "base" + std::to_string(I);
    C->Base.push_back(
        Gen.generate(Name, Seed * 0x9e3779b97f4a7c15ULL + 0x100000 + I));
    std::string Text = toString(*C->Base.back().F);
    const std::string Old = "@" + Name + "(";
    size_t At = Text.find(Old);
    Text.replace(At, Old.size(), "@" + Placeholder + "(");
    for (int W = 0; W < 2; ++W) {
      C->BasePayload[W].push_back(encodeModule(Text, W));
      C->DigitsAt[W].push_back(C->BasePayload[W].back().find(Placeholder) +
                               sizeof(kFreshStem) - 1);
    }
  }
  return C;
}

std::string freshName(uint64_t Id) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s%0*llu", kFreshStem, kFreshDigits,
                static_cast<unsigned long long>(Id));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Open-loop phases
//===----------------------------------------------------------------------===//

enum Outcome : uint8_t { None, Hit, Miss, Shed, HardError, WrongKind };

struct Request {
  uint64_t Offset = 0; ///< Intended send time after the phase start.
  uint32_t Index = 0;  ///< Hot-pool or base-pool index.
  bool Hot = false;
  bool WantBody = false;
  uint64_t FreshId = 0;
};

struct PhaseResult {
  std::vector<Request> Reqs;
  std::vector<OpenLoopSample> Samples;
  std::vector<uint8_t> Outcomes;
  std::vector<std::pair<size_t, std::string>> Bodies; ///< Fresh request, body.
  double Seconds = 0;
  uint64_t Start = 0;
  bool TransportOk = true;
};

std::vector<Request> schedule(const WorkloadShape &Shape, double Seconds,
                              uint64_t Seed, uint64_t &NextFresh) {
  RNG R(Seed);
  std::vector<Request> Reqs;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - R.nextDouble()) / Shape.Rate;
    if (T >= Seconds)
      break;
    Request Q;
    Q.Offset = static_cast<uint64_t>(T * 1e9);
    Q.Hot = R.nextDouble() < Shape.HotShare;
    if (Q.Hot) {
      Q.Index = static_cast<uint32_t>(R.nextBelow(kHotPool));
    } else {
      Q.Index = static_cast<uint32_t>(R.nextBelow(kBasePool));
      Q.FreshId = NextFresh++;
      Q.WantBody = R.nextBelow(kBodySample) == 0;
    }
    Reqs.push_back(Q);
  }
  return Reqs;
}

PhaseResult runPhase(const Corpus &C, const int Fds[2],
                     std::vector<Request> Reqs, double Seconds, bool Traced,
                     bool OneSegment = false) {
  PhaseResult P;
  P.Reqs = std::move(Reqs);
  P.Seconds = Seconds;
  const size_t N = P.Reqs.size();
  P.Samples.resize(N);
  P.Outcomes.assign(N, None);
  P.Start = nowNanos() + 2000000; // Leave the threads 2 ms to start.
  for (size_t I = 0; I < N; ++I)
    P.Samples[I].Intended = P.Start + P.Reqs[I].Offset;

  // Request I goes on connection I % 2; answers come back in order.
  std::atomic<bool> SendOk{true}, RecvOk{true};
  std::thread Sender([&] {
    // Wake at the intended send time, not up to the default 50 us after it:
    // the lateness would count as the daemon's latency.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t I = 0; I < N; ++I) {
      const Request &Q = P.Reqs[I];
      sleepUntil(P.Samples[I].Intended);
      std::string Fresh;
      if (!Q.Hot) {
        Fresh = C.BasePayload[Q.WantBody][Q.Index];
        std::snprintf(Fresh.data() + C.DigitsAt[Q.WantBody][Q.Index],
                      kFreshDigits + 1, "%0*llu", kFreshDigits,
                      static_cast<unsigned long long>(Q.FreshId));
        // snprintf wrote a NUL over the '(' that follows the digits.
        Fresh[C.DigitsAt[Q.WantBody][Q.Index] + kFreshDigits] = '(';
      }
      P.Samples[I].Sent = nowNanos();
      std::string Err;
      if (!sendFrame(Fds[I % 2], Q.Hot ? C.HotPayload[0][Q.Index] : Fresh,
                     OneSegment, Err)) {
        SendOk = false;
        return;
      }
    }
  });

  std::thread Receiver([&] {
    size_t Next[2] = {0, 1}; // Next request index answered per connection.
    size_t Received = 0;
    uint64_t LastProgress = nowNanos();
    const uint32_t HitSpan = Tracer::get().intern("client.request.hit");
    const uint32_t MissSpan = Tracer::get().intern("client.request.miss");
    while (Received < N) {
      struct pollfd PF[2] = {{Fds[0], POLLIN, 0}, {Fds[1], POLLIN, 0}};
      int Ready = ::poll(PF, 2, 200);
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready <= 0) {
        // Every arrival fired long ago and nothing came back: give up on
        // the missing frames rather than hang.
        if (nowNanos() > P.Start + static_cast<uint64_t>(Seconds * 1e9) &&
            nowNanos() - LastProgress > 30000000000ull)
          break;
        continue;
      }
      for (int Conn = 0; Conn < 2; ++Conn) {
        if (!(PF[Conn].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        std::string Raw, Err;
        if (Next[Conn] >= N || !readFrame(Fds[Conn], Raw, &Err)) {
          RecvOk = false;
          return;
        }
        const uint64_t Done = nowNanos();
        LastProgress = Done;
        const size_t I = Next[Conn];
        Next[Conn] += 2;
        ++Received;
        P.Samples[I].Done = Done;
        ServiceResponse Resp;
        if (!decodeResponse(Raw, Resp, &Err)) {
          P.Outcomes[I] = HardError;
          continue;
        }
        const Request &Q = P.Reqs[I];
        if (!Resp.Ok) {
          P.Outcomes[I] = Resp.Retryable ? Shed : HardError;
          if (!Resp.Retryable)
            std::fprintf(stderr, "snbench: error answer: %s %s\n",
                         Resp.ErrorCodeName.c_str(), Resp.Body.c_str());
          P.Samples[I].Done = 0; // Refused: misses every latency limit.
          continue;
        }
        const bool IsHit = Resp.Cache == "hit" || Resp.Cache == "coalesced";
        // A fresh module can never be a hit; a hot one can miss only if
        // the cache evicted it.
        P.Outcomes[I] = IsHit ? (Q.Hot ? Hit : WrongKind) : Miss;
        if (Q.WantBody)
          P.Bodies.emplace_back(I, std::move(Resp.Body));
        if (Traced)
          Tracer::get().record(IsHit ? HitSpan : MissSpan,
                               P.Samples[I].Intended, Done, I + 1);
      }
    }
  });
  Sender.join();
  Receiver.join();
  P.TransportOk = SendOk && RecvOk;
  return P;
}

struct ClientStats {
  uint64_t Attempted = 0, Hits = 0, Misses = 0, Shed = 0, Hard = 0,
           Missing = 0, WrongKind = 0, HotMisses = 0;
  /// Over every attempted request (refused ones are missing), and over
  /// the requests answered ok.
  double P50Ms = 0, P99Ms = 0, OkP50Ms = 0, OkP99Ms = 0, HitP50Ms = 0,
         HitP99Ms = 0, MissP50Ms = 0, MissP99Ms = 0, LagP99Ms = 0,
         Goodput = 0;
};

ClientStats summarize(const PhaseResult &P) {
  ClientStats S;
  std::vector<double> All, Ok, HitLat, MissLat, Lag;
  for (size_t I = 0; I < P.Samples.size(); ++I) {
    const double L = openLoopLatencyNanos(P.Samples[I]) * 1e-6;
    All.push_back(L);
    Lag.push_back(generatorLagNanos(P.Samples[I]) * 1e-6);
    switch (P.Outcomes[I]) {
    case Hit:
      ++S.Hits;
      HitLat.push_back(L);
      Ok.push_back(L);
      break;
    case Miss:
      ++S.Misses;
      S.HotMisses += P.Reqs[I].Hot;
      MissLat.push_back(L);
      Ok.push_back(L);
      break;
    case Shed:
      ++S.Shed;
      break;
    case HardError:
      ++S.Hard;
      break;
    case WrongKind:
      ++S.WrongKind;
      break;
    default:
      ++S.Missing;
    }
  }
  S.Attempted = P.Samples.size();
  S.P50Ms = percentile(All, 50);
  S.P99Ms = percentile(All, 99);
  S.OkP50Ms = percentile(Ok, 50);
  S.OkP99Ms = percentile(Ok, 99);
  auto Tail = [](const std::vector<double> &V, double P) {
    return percentileSupported(V.size(), P) ? percentile(V, P) : 0.0;
  };
  S.HitP50Ms = percentile(HitLat, 50);
  S.HitP99Ms = Tail(HitLat, 99);
  S.MissP50Ms = percentile(MissLat, 50);
  S.MissP99Ms = Tail(MissLat, 99);
  S.LagP99Ms = percentile(Lag, 99);
  S.Goodput = static_cast<double>(S.Hits + S.Misses) / P.Seconds;
  return S;
}

/// One phase made of \p Parts run one after the other: every request, the
/// bodies re-indexed, and the scheduled seconds summed.
PhaseResult mergePhases(std::vector<PhaseResult> Parts) {
  PhaseResult All;
  for (PhaseResult &P : Parts) {
    const size_t Base = All.Reqs.size();
    if (Base == 0)
      All.Start = P.Start;
    All.Reqs.insert(All.Reqs.end(), P.Reqs.begin(), P.Reqs.end());
    All.Samples.insert(All.Samples.end(), P.Samples.begin(), P.Samples.end());
    All.Outcomes.insert(All.Outcomes.end(), P.Outcomes.begin(),
                        P.Outcomes.end());
    for (auto &[I, Body] : P.Bodies)
      All.Bodies.emplace_back(Base + I, std::move(Body));
    All.Seconds += P.Seconds;
    All.TransportOk = All.TransportOk && P.TransportOk;
  }
  return All;
}

double finiteOrZero(double V) { return std::isfinite(V) ? V : 0; }

/// Re-runs a vectorized body against its unvectorized source on the
/// reference interpreter, with the DiffOracle's comparison rules.
bool checkBody(const fuzz::GeneratedProgram &Source, const std::string &Body,
               const std::string &Entry, uint64_t DataSeed,
               std::string &Detail) {
  Context Ctx;
  Module M(Ctx, "answer");
  std::string Err;
  if (!parseIR(Body, M, &Err)) {
    Detail = "answer does not parse: " + Err;
    return false;
  }
  Function *F = M.getFunction(Entry);
  if (!F) {
    Detail = "answer lacks @" + Entry;
    return false;
  }
  fuzz::DiffOracle Oracle;
  fuzz::ProgramRun Want =
      Oracle.runProgram(Source, *Source.F, DataSeed, EngineKind::Reference);
  fuzz::ProgramRun Got =
      Oracle.runProgram(Source, *F, DataSeed, EngineKind::Reference);
  if (!Want.Ok || !Got.Ok) {
    Detail = "run failed: " + (Want.Ok ? Got.Error : Want.Error);
    return false;
  }
  return Oracle.compareRuns(Source, Want, Got, &Detail);
}

/// Median per-call time in microseconds of \p Fn over \p Calls calls,
/// one span per batch.
template <typename Fn>
double probeMicros(uint32_t SpanName, Fn &&Body) {
  constexpr int Calls = 64;
  std::vector<double> Reps;
  for (int Rep = 0; Rep < 5; ++Rep) {
    Span S(SpanName);
    uint64_t T0 = nowNanos();
    for (int I = 0; I < Calls; ++I)
      Body();
    Reps.push_back(static_cast<double>(nowNanos() - T0) * 1e-3 / Calls);
  }
  return median(Reps);
}

/// In-process probes of the daemon's per-request path on the hot pool.
void probeRequestPath(const Corpus &C, Report &R) {
  Tracer &T = Tracer::get();
  const uint32_t Decode = T.intern("service.decode"),
                 Key = T.intern("service.key"),
                 WarmHit = T.intern("service.warm_hit"),
                 Encode = T.intern("service.encode");
  ServiceConfig Cfg;
  Cfg.Workers = 1;
  CompileService Svc(Cfg);
  std::vector<double> DecodeUs, KeyUs, HitUs, EncodeUs;
  for (unsigned I = 0; I < kHotPool; ++I) {
    const std::string Payload = encodeModule(C.HotText[I], false);
    ServiceRequest Req;
    std::string Err;
    if (!decodeRequest(Payload, Req, &Err)) {
      R.fail("service: probe cannot decode its own request: " + Err);
      return;
    }
    DecodeUs.push_back(probeMicros(Decode, [&] {
      ServiceRequest Tmp;
      decodeRequest(Payload, Tmp, &Err);
    }));
    const CompileRequest CReq = toCompileRequest(Req);
    KeyUs.push_back(probeMicros(Key, [&] {
      Digest128 D = CompileService::requestKey(CReq);
      asm volatile("" : : "r"(&D) : "memory");
    }));
    Expected<CompiledUnit> Cold = Svc.compileSync(CReq);
    if (!Cold) {
      R.fail("service: probe compile failed: " + Cold.errorMessage());
      return;
    }
    HitUs.push_back(probeMicros(WarmHit, [&] {
      Expected<CompiledUnit> U = Svc.compileSync(CReq);
      (void)U;
    }));
    Expected<CompiledUnit> Unit = Svc.compileSync(CReq);
    const ServiceResponse Resp = buildResponse(Unit, Req);
    EncodeUs.push_back(probeMicros(Encode, [&] {
      std::string Bytes = encodeResponse(Resp);
      asm volatile("" : : "r"(Bytes.data()) : "memory");
    }));
  }
  R.set("service.decode_us", median(DecodeUs));
  R.set("service.key_us", median(KeyUs));
  R.set("service.warm_hit_us", median(HitUs));
  R.set("service.encode_us", median(EncodeUs));
}

} // namespace

void snbench::runService(const RunOptions &Opts, Report &R) {
  std::signal(SIGPIPE, SIG_IGN);

  // The inputs, once: generating them is the benchmark's own work.
  const uint64_t CorpusT0 = nowNanos();
  const std::unique_ptr<Corpus> C = buildCorpus(Opts.Seed);
  std::printf("service: corpus of %u hot and %u base modules generated in "
              "%.3f s (not part of setup_s)\n",
              kHotPool, kBasePool,
              static_cast<double>(nowNanos() - CorpusT0) * 1e-9);

  // One set-up: daemon start to first answered frame, then the hot-pool
  // warm-up (first sweep all misses, second all hits). Each set-up's hot
  // answers must be the first one's bytes.
  std::vector<double> SetupSeconds;
  Daemon D;
  int Fds[2] = {-1, -1};
  auto CloseConns = [](int(&Conns)[2]) {
    for (int &Fd : Conns)
      if (Fd >= 0) {
        ::close(Fd);
        Fd = -1;
      }
  };
  std::vector<std::string> HotBodies;
  auto SetUpOnce = [&](Daemon &Dm, int(&Conns)[2]) -> bool {
    CloseConns(Conns);
    Dm.stop();
    const uint64_t T0 = nowNanos();
    std::string Err;
    if (!Dm.start(Opts.DaemonPath, Err) ||
        (Conns[0] = Dm.connect(Err)) < 0 ||
        (Conns[1] = Dm.connect(Err)) < 0) {
      R.fail("service: cannot start the daemon: " + Err);
      return false;
    }
    scrapeStats(Conns[0], R);
    uint64_t Marks[3] = {nowNanos(), 0, 0}; // Started, compiled, hit.
    std::vector<std::string> Bodies;
    unsigned Split[2][2] = {{0, 0}, {0, 0}}; // [sweep][hit]
    // Each sweep sends every request before it reads an answer, half on
    // each connection: a set-up made of 64 round trips one after the other
    // timed mostly the host's thread wake-ups. The reads acknowledge at
    // once (TCP_QUICKACK), or each answer after the first would wait up to
    // 40 ms for the delayed acknowledgement of the one before (the daemon
    // keeps Nagle's algorithm; see sendFrame).
    for (int Sweep = 0; Sweep < 2; ++Sweep) {
      for (unsigned I = 0; I < kHotPool; ++I)
        if (!writeFrame(Conns[I % 2], C->HotPayload[Sweep == 0][I], &Err)) {
          R.fail("service: hot-pool warm-up failed: " + Err);
          return false;
        }
      for (unsigned I = 0; I < kHotPool; ++I) {
        ServiceResponse Resp;
        std::string Raw;
        int One = 1;
        ::setsockopt(Conns[I % 2], IPPROTO_TCP, TCP_QUICKACK, &One,
                     sizeof(One));
        if (!readFrame(Conns[I % 2], Raw, &Err) ||
            !decodeResponse(Raw, Resp, &Err) || !Resp.Ok) {
          R.fail("service: hot-pool warm-up failed: " + Err + Resp.Body);
          return false;
        }
        ++Split[Sweep][Resp.Cache == "hit"];
        if (Sweep == 0)
          Bodies.push_back(Resp.Body);
      }
      Marks[Sweep + 1] = nowNanos();
    }
    SetupSeconds.push_back(static_cast<double>(Marks[2] - T0) * 1e-9);
    std::printf("service: set-up %zu: %.4f s (daemon up %.4f, hot pool "
                "compiled %.4f, hit %.4f)\n",
                SetupSeconds.size() - 1, SetupSeconds.back(),
                static_cast<double>(Marks[0] - T0) * 1e-9,
                static_cast<double>(Marks[1] - Marks[0]) * 1e-9,
                static_cast<double>(Marks[2] - Marks[1]) * 1e-9);
    if (Split[0][1] != 0 || Split[1][0] != 0)
      R.fail("determinism: hot-pool warm-up split was " +
             std::to_string(Split[0][0]) + " miss/" +
             std::to_string(Split[0][1]) + " hit, then " +
             std::to_string(Split[1][0]) + " miss/" +
             std::to_string(Split[1][1]) + " hit");
    if (HotBodies.empty())
      HotBodies = std::move(Bodies);
    else if (Bodies != HotBodies)
      R.fail("determinism: the hot-pool answers differ between set-ups");
    return true;
  };
  for (unsigned Rep = 0; Rep < kSetupRepeats; ++Rep)
    if (!SetUpOnce(D, Fds))
      return;

  // Warm-up at the workload's own load, not counted.
  uint64_t NextFresh = 0;
  PhaseResult Warm = runPhase(
      *C, Fds,
      schedule(kOverload, kWarmupSeconds, Opts.Seed ^ 0x5741524d, NextFresh),
      kWarmupSeconds, false);
  const ClientStats WarmStats = summarize(Warm);
  if (!Warm.TransportOk || WarmStats.Missing || WarmStats.Hard ||
      WarmStats.WrongKind)
    R.fail("service: the warm-up phase lost or failed requests");

  struct Measured {
    PhaseResult P;
    ClientStats S;
    std::map<std::string, double> Before, After;
    double CpuMicros = 0;
  };
  auto Measure = [&](const Daemon &Dm, const int(&Conns)[2],
                     const WorkloadShape &Shape, const char *Label,
                     double Seconds, uint64_t PhaseSeed, bool Traced) {
    Measured M;
    M.Before = scrapeStats(Conns[0], R);
    const double Cpu0 = cpuMicros(Dm.pid());
    Tracer::get().setEnabled(Traced);
    M.P = runPhase(*C, Conns, schedule(Shape, Seconds, PhaseSeed, NextFresh),
                   Seconds, Traced);
    Tracer::get().setEnabled(false);
    M.CpuMicros = cpuMicros(Dm.pid()) - Cpu0;
    M.After = scrapeStats(Conns[0], R);
    M.S = summarize(M.P);
    if (!M.P.TransportOk)
      R.fail("service: transport failure (a frame was not answered)");
    R.Attempted += M.S.Attempted;
    R.Failed += M.S.Hard + M.S.Missing + M.S.WrongKind +
                (Shape.ShedIsFailure ? M.S.Shed : 0);
    if (M.S.Missing)
      R.fail("service: " + std::to_string(M.S.Missing) +
             " frames were never answered");
    if (M.S.Hard)
      R.fail("service: " + std::to_string(M.S.Hard) + " error answers");
    if (M.S.WrongKind)
      R.fail("service: " + std::to_string(M.S.WrongKind) +
             " fresh modules were answered as cache hits");
    std::printf("%s: %llu requests over %.1f s: %llu hit, %llu miss (%llu "
                "hot), %llu shed; all requests p50 %.3f ms, p99 %.3f ms; "
                "answered ok p50 %.3f ms, p99 %.3f ms; lag p99 %.3f ms\n",
                Label, static_cast<unsigned long long>(M.S.Attempted),
                Seconds, static_cast<unsigned long long>(M.S.Hits),
                static_cast<unsigned long long>(M.S.Misses),
                static_cast<unsigned long long>(M.S.HotMisses),
                static_cast<unsigned long long>(M.S.Shed), M.S.P50Ms,
                M.S.P99Ms, M.S.OkP50Ms, M.S.OkP99Ms, M.S.LagP99Ms);
    return M;
  };
  auto Delta = [](const Measured &M, const std::string &Name) {
    return sumCounter(M.After, Name) - sumCounter(M.Before, Name);
  };

  // The untraced phase, in kSegments segments on the same daemon. In each
  // pause between two segments, more set-ups run, each on a daemon of its
  // own that is then stopped: the host's speed drifts over seconds, and
  // set-ups spread over the whole run sample it the way the phase does.
  // Shedding is the designed answer here and shows in ops_per_s and
  // service.shed_ratio; the latency is that of the requests answered ok.
  const double SegmentSeconds =
      (Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds) / kSegments;
  std::vector<PhaseResult> Segments;
  double DaemonCpuMicros = 0;
  for (unsigned Seg = 0; Seg < kSegments; ++Seg) {
    for (unsigned Rep = 0; Seg > 0 && Rep < kSetupsPerPause; ++Rep) {
      Daemon Spare;
      int SpareFds[2] = {-1, -1};
      const bool Ok = SetUpOnce(Spare, SpareFds);
      CloseConns(SpareFds);
      Spare.stop();
      if (!Ok)
        return;
    }
    Measured M = Measure(D, Fds, kOverload, "untraced", SegmentSeconds,
                         Opts.Seed ^ (Seg * 0x9e3779b97f4a7c15ULL), false);
    DaemonCpuMicros += M.CpuMicros;
    Segments.push_back(std::move(M.P));
  }
  Measured E2E;
  E2E.P = mergePhases(std::move(Segments));
  E2E.S = summarize(E2E.P);
  E2E.CpuMicros = DaemonCpuMicros;
  const double Ok = static_cast<double>(E2E.S.Hits + E2E.S.Misses);
  if (!std::isfinite(E2E.S.OkP50Ms))
    R.fail("service: no request was answered ok");
  R.set("p50_ms", finiteOrZero(E2E.S.OkP50Ms));
  R.set("ops_per_s", E2E.S.Goodput);
  R.set("bench.cpu_us_per_op", Ok > 0 ? E2E.CpuMicros / Ok : 0);

  if (Opts.Trace) {
    Measured T = Measure(D, Fds, kOverload, "traced", Opts.Seconds / 2,
                         Opts.Seed ^ 0x7472616365, true);
    const ClientStats &S = T.S;
    R.set("client.p99_ms", finiteOrZero(S.OkP99Ms));
    R.set("client.lag_p99_ms", S.LagP99Ms);
    R.set("service.coalesced", Delta(T, "service.cache.coalesced"));
    R.set("service.queue_rejected", Delta(T, "service.queue.rejected") +
                                        Delta(T, "service.shard.rejected"));
    const double Compiles = Delta(T, "service.compiles");
    R.set("service.compile_ms_per_miss",
          Compiles > 0 ? Delta(T, "service.compile.nanos") / Compiles * 1e-6
                       : 0);
    R.set("service.shed_ratio", static_cast<double>(S.Shed) /
                                    static_cast<double>(S.Attempted));
    double Lo = 0, Hi = 0;
    for (int Shard = 0; Shard < 2; ++Shard) {
      const std::string Key =
          "shard " + std::to_string(Shard) + " service.requests";
      const double N = T.After[Key] - T.Before[Key];
      Lo = Shard == 0 ? N : std::min(Lo, N);
      Hi = Shard == 0 ? N : std::max(Hi, N);
    }
    R.set("service.shard_imbalance", Lo > 0 ? Hi / Lo : 0);

    // How much of the traced phase had a request in flight.
    std::vector<Interval> InFlight;
    for (const OpenLoopSample &Q : T.P.Samples)
      if (Q.Done)
        InFlight.push_back({Q.Intended, Q.Done});
    const uint64_t PhaseEnd = T.P.Start +
                              static_cast<uint64_t>(T.P.Seconds * 1e9);
    const Interval Wall{T.P.Start, PhaseEnd};
    R.set("trace.coverage",
          1.0 - static_cast<double>(selfNanos(Wall, InFlight)) /
                    static_cast<double>(PhaseEnd - T.P.Start));
    R.set("trace.overhead_pct", (S.OkP50Ms / E2E.S.OkP50Ms - 1) * 100);

    // The hit path, at light load on a daemon of its own (see kMixed).
    Daemon Mx;
    int MxFds[2] = {-1, -1};
    if (!SetUpOnce(Mx, MxFds))
      return;
    const PhaseResult MixWarm = runPhase(
        *C, MxFds,
        schedule(kMixed, kMixedWarmupSeconds, Opts.Seed ^ 0x4d495857,
                 NextFresh),
        kMixedWarmupSeconds, false);
    const ClientStats MixWarmStats = summarize(MixWarm);
    if (!MixWarm.TransportOk || MixWarmStats.Missing || MixWarmStats.Hard ||
        MixWarmStats.WrongKind)
      R.fail("service: the light-load warm-up lost or failed requests");
    Measured Mix = Measure(Mx, MxFds, kMixed, "mixed", kMixedSeconds,
                           Opts.Seed ^ 0x4d49584544, true);
    R.set("client.hit_p50_ms", finiteOrZero(Mix.S.HitP50Ms));
    R.set("client.hit_p99_ms", Mix.S.HitP99Ms);
    R.set("client.miss_p50_ms", finiteOrZero(Mix.S.MissP50Ms));
    R.set("client.miss_p99_ms", Mix.S.MissP99Ms);
    const double Requests = Delta(Mix, "service.requests");
    R.set("service.hit_ratio",
          Requests > 0 ? Delta(Mix, "service.cache.hits") / Requests : 0);

    // The same load from a client whose frames leave as one segment.
    PhaseResult One = runPhase(
        *C, MxFds,
        schedule(kMixed, kOneSegmentSeconds, Opts.Seed ^ 0x31534547,
                 NextFresh),
        kOneSegmentSeconds, false, /*OneSegment=*/true);
    const ClientStats OS = summarize(One);
    if (!One.TransportOk || OS.Missing || OS.Hard || OS.WrongKind)
      R.fail("service: the one-segment phase lost or failed requests");
    R.set("client.onesegment_hit_p50_ms", finiteOrZero(OS.HitP50Ms));
    CloseConns(MxFds);
    Mx.stop();

    Tracer::get().setEnabled(true);
    probeRequestPath(*C, R);
    Tracer::get().setEnabled(false);
    // What the in-process path does not explain of a hit's latency: the
    // reactor, shard queue and wake-ups (0 when nothing hit).
    if (Mix.S.Hits > 0)
      R.set("service.unaccounted_hit_ms",
            R.get("client.hit_p50_ms") -
                (R.get("service.decode_us") + R.get("service.key_us") +
                 R.get("service.warm_hit_us") + R.get("service.encode_us")) *
                    1e-3);
    R.set("trace.spans", static_cast<double>(Tracer::get().size()));
  }

  R.set("peak_rss_mb", peakRssMB(D.pid()));
  // As many set-ups again after the timed phases.
  for (unsigned Rep = 0; Rep < kSetupRepeats; ++Rep)
    if (!SetUpOnce(D, Fds))
      break;
  CloseConns(Fds);
  D.stop();
  R.set("setup_s", median(SetupSeconds));

  // Output checks: every hot module's answer, and a seeded sample of
  // fresh answers, against the unvectorized source.
  unsigned Checked = 0;
  for (unsigned I = 0; I < kHotPool; ++I) {
    std::string Detail;
    const std::string Entry = "hot" + std::to_string(I);
    if (!checkBody(C->Hot[I], HotBodies[I], Entry, Opts.Seed, Detail)) {
      R.fail("service: wrong answer for @" + Entry + ": " + Detail);
      ++R.Failed;
    }
    ++Checked;
  }
  for (const auto &[I, Body] : E2E.P.Bodies) {
    if (Checked >= kHotPool + kMaxChecks)
      break;
    const Request &Q = E2E.P.Reqs[I];
    std::string Detail;
    if (!checkBody(C->Base[Q.Index], Body, freshName(Q.FreshId), Opts.Seed,
                   Detail)) {
      R.fail("service: wrong answer for @" + freshName(Q.FreshId) + ": " +
             Detail);
      ++R.Failed;
    }
    ++Checked;
  }
  std::printf("service: %u answers re-run against their source\n", Checked);

  // The warm-up split is checked above; across runs, the daemon's
  // answers for the hot pool must be the same bytes.
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (const std::string &Body : HotBodies)
    for (unsigned char Ch : Body)
      Hash = (Hash ^ Ch) * 0x100000001b3ULL;
  std::ostringstream Counts;
  Counts << "hot_pool=" << kHotPool << " warmup_split=" << kHotPool
         << " miss then " << kHotPool << " hit, answers fnv64=" << std::hex
         << Hash << "\n";
  checkCountsAcrossRuns(Opts, Counts.str(), R);
}
