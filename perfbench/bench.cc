// The wafe frontend benchmark.
//
// One single-threaded process that links the wafe libraries and plays each
// workload's backend itself over the real backend fds: Frontend::AdoptBackend
// takes one end of two pipes, so every %-line goes through the same
// read -> split -> eval -> write path a forked child's output would, and
// every callback comes back on the pipe a child's stdin would be. UI events
// are injected through xsim. Timed loops never fork: a forked round trip is
// mostly kernel wakeup, which is scheduler noise rather than wafe code, so
// the forked leg is measured only in the traced run (fork.wakeup_us).
//
//   perfbench --workload interactive|stream|churn --seed N
//                    --seconds S --trace 0|1 [--spans FILE]
//                    [--burn-pct P] [--fault]
//
// --trace 0 prints the end-to-end metrics with wobs fully off; --trace 1
// prints the per-layer metrics of a traced run (see README.md). --burn-pct
// makes every timed operation spin an extra P% of its own time (the
// steadiness script's seeded-slowdown self-test), and --fault breaks one
// output check on purpose, so the run must fail. The last line of stdout is
// one JSON object; the exit code is non-zero when any operation or output
// check failed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/comm.h"
#include "src/core/wafe.h"
#include "src/obs/obs.h"
#include "src/xsim/keysym.h"

namespace {

using Pairs = std::vector<std::pair<std::string, std::string>>;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[noreturn]] void Die(const std::string& message) {
  std::printf("perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(2);
}

// Spins for `ns` nanoseconds: the seeded slowdown of the self-test.
void Burn(std::uint64_t ns) {
  std::uint64_t end = NowNs() + ns;
  while (NowNs() < end) {
  }
}

// xorshift64*: the workload inputs are a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull) {}

  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  long Range(long lo, long hi) { return lo + static_cast<long>(Below(static_cast<std::size_t>(hi - lo + 1))); }
  std::string Word(std::size_t min_len, std::size_t max_len) {
    std::string word(min_len + Below(max_len - min_len + 1), 'a');
    for (char& c : word) {
      c = static_cast<char>('a' + Below(26));
    }
    return word;
  }

 private:
  std::uint64_t state_;
};

// FNV-1a over the generated input, so two runs can show they were fed the
// same bytes.
class Digest {
 public:
  void Add(std::string_view text) {
    for (unsigned char c : text) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t FramebufferHash(xsim::Display& display) {
  Digest d;
  const std::vector<xsim::Pixel>& fb = display.framebuffer();
  d.Add(std::string_view(reinterpret_cast<const char*>(fb.data()), fb.size() * sizeof(xsim::Pixel)));
  return d.value();
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long pages = 0;
  long resident = 0;
  int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
                      (1024.0 * 1024.0)
                : 0;
}

// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Mean of the samples left after dropping the lowest and highest 10%: robust
// to the odd slow operation, and (unlike the median) nearly additive, so
// layer self times aggregated this way can be checked against their total.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// --- Host-speed reference ------------------------------------------------------
//
// The VMs this runs on change speed for seconds to minutes at a time as other
// tenants load the machine, by up to ~1.7x, and every kind of work slows
// with them. So each run also times a fixed slice of wafe-free work,
// interleaved with the operations, and reports its timings in
// reference-host time: scaled by kNominalSliceUs / (mean slice time of the
// run, or for an operation's latency, of the slices around it). A change
// to wafe moves the scaled figures as it moves the raw ones,
// since the slice never changes; the host's speed cancels. Of the candidate
// slices tried (poll syscalls, framebuffer-style fills, string-keyed map
// lookups, heap allocation), lookups plus allocation tracked all three
// workloads best. Raw figures are printed alongside.
class HostReference {
 public:
  // A slice's time on an unloaded host of the kind the bounds were set on.
  static constexpr double kNominalSliceUs = 800;
  // One slice per this much operation time keeps the reference ~2% of a run.
  static constexpr std::uint64_t kSliceEveryNs = 40'000'000;

  HostReference() {
    for (int i = 0; i < 40; ++i) {
      lookup_["resource" + std::to_string(i * 7)] = "value" + std::to_string(i);
    }
  }

  // Runs one slice and accumulates its time; returns the slice's time in us.
  double Slice() {
    std::uint64_t t0 = NowNs();
    for (int rep = 0; rep < 600; ++rep) {
      for (int i = 0; i < 10; ++i) {
        sink_ += lookup_.count("resource" + std::to_string(i * 7));
      }
    }
    std::vector<std::unique_ptr<std::string>> heap;
    for (int rep = 0; rep < 18; ++rep) {
      for (int i = 0; i < 200; ++i) {
        heap.push_back(std::make_unique<std::string>(static_cast<std::size_t>(24 + i % 40), 'x'));
      }
      sink_ += heap.size();
      heap.clear();
    }
    std::uint64_t dt = NowNs() - t0;
    total_ns_ += dt;
    ++slices_;
    return static_cast<double>(dt) / 1000.0;
  }
  // Records one operation's time, and runs a slice when kSliceEveryNs of
  // operation time has passed since the last.
  void AddOp(std::uint64_t op_ns) {
    ops_.push_back(Op{op_ns, slice_us_.size()});
    since_ns_ += op_ns;
    if (since_ns_ >= kSliceEveryNs) {
      since_ns_ = 0;
      slice_us_.push_back(Slice());
    }
  }
  // Every recorded operation's time in reference-host microseconds, each
  // scaled by the kWindow slices before and after it: the host can change
  // speed within a run, and a percentile over a mix of speeds would move
  // with the mix, while a single slice is too noisy to scale by.
  std::vector<double> ScaledOpsUs() const {
    constexpr std::size_t kWindow = 16;
    std::vector<double> out;
    out.reserve(ops_.size());
    for (const Op& op : ops_) {
      std::size_t lo = op.slices_before > kWindow ? op.slices_before - kWindow : 0;
      std::size_t hi = std::min(op.slices_before + kWindow, slice_us_.size());
      double sum = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        sum += slice_us_[i];
      }
      double ref = hi > lo ? sum / static_cast<double>(hi - lo) : kNominalSliceUs;
      out.push_back(static_cast<double>(op.ns) / 1000.0 * kNominalSliceUs / ref);
    }
    return out;
  }

  double mean_slice_us() const {
    return slices_ == 0 ? kNominalSliceUs
                        : static_cast<double>(total_ns_) / 1000.0 / static_cast<double>(slices_);
  }
  // Multiply a measured time by this to get reference-host time.
  double time_scale() const { return kNominalSliceUs / mean_slice_us(); }
  std::size_t slices() const { return slices_; }
  void Reset() {
    total_ns_ = 0;
    slices_ = 0;
    since_ns_ = 0;
    ops_.clear();
    slice_us_.clear();
  }

 private:
  struct Op {
    std::uint64_t ns;
    std::size_t slices_before;
  };
  std::vector<Op> ops_;
  std::vector<double> slice_us_;
  std::map<std::string, std::string> lookup_;
  std::size_t sink_ = 0;
  std::uint64_t total_ns_ = 0;
  std::size_t slices_ = 0;
  std::uint64_t since_ns_ = 0;
};

// --- The backend's ends of the protocol fds ---------------------------------

// The backend's side of the two pipes a forked backend's stdout and stdin
// would be: the benchmark writes %-lines where the child would and reads
// what the frontend sends the child.
class Backend {
 public:
  explicit Backend(wafe::Wafe& app) : app_(app) {
    int to_frontend[2];
    int from_frontend[2];
    if (::pipe(to_frontend) != 0 || ::pipe(from_frontend) != 0) {
      Die(std::string("pipe: ") + std::strerror(errno));
    }
    write_fd_ = to_frontend[1];
    read_fd_ = from_frontend[0];
    ::fcntl(write_fd_, F_SETFL, ::fcntl(write_fd_, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(read_fd_, F_SETFL, ::fcntl(read_fd_, F_GETFL, 0) | O_NONBLOCK);
    app_.set_backend_output(true);
    app_.frontend().AdoptBackend(to_frontend[0], from_frontend[1]);
  }
  ~Backend() {
    ::close(write_fd_);
    ::close(read_fd_);
  }
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Writes every byte, letting the frontend drain the pipe whenever it is
  // full, as a blocked backend would wait for it.
  void Write(std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t n = ::write(write_fd_, bytes.data(), bytes.size());
      if (n > 0) {
        bytes.remove_prefix(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        app_.app().RunOneIteration(false);
      } else {
        Die(std::string("write to frontend: ") + std::strerror(errno));
      }
    }
  }

  // Runs the frontend until it has nothing left to do; returns how many
  // loop iterations did work (each read of the backend fd is one).
  std::size_t Pump() {
    std::size_t n = 0;
    while (app_.app().RunOneIteration(false)) {
      ++n;
    }
    iterations_ += n;
    return n;
  }
  // Working loop iterations over every Pump so far.
  std::size_t iterations() const { return iterations_; }

  // The complete lines the frontend has sent since the last call.
  std::vector<std::string> ReadLines() {
    char chunk[16384];
    ssize_t n;
    while ((n = ::read(read_fd_, chunk, sizeof(chunk))) > 0) {
      pending_.append(chunk, static_cast<std::size_t>(n));
    }
    std::vector<std::string> lines;
    std::size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      lines.push_back(pending_.substr(0, nl));
      pending_.erase(0, nl + 1);
    }
    return lines;
  }

 private:
  wafe::Wafe& app_;
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::string pending_;
  std::size_t iterations_ = 0;
};

// A frontend with its backend pipes; the pipes close before the frontend.
struct Session {
  std::unique_ptr<wafe::Wafe> app;
  std::unique_ptr<Backend> backend;

  xtk::AppContext& xt() { return app->app(); }
  xsim::Display& display() { return app->app().display(); }
  xtk::Widget* Find(const std::string& name) { return app->app().FindWidget(name); }
};

Session NewSession(const std::string& tree_lines) {
  Session s;
  s.app = std::make_unique<wafe::Wafe>();
  s.backend = std::make_unique<Backend>(*s.app);
  s.backend->Write(tree_lines);
  s.backend->Pump();
  return s;
}

// Root coordinates of a point inside a realized widget.
xsim::Point Inside(Session& s, xtk::Widget* w, long dx, long dy) {
  xsim::Point p = s.display().RootPosition(w->window());
  return xsim::Point{static_cast<xsim::Position>(p.x + dx), static_cast<xsim::Position>(p.y + dy)};
}

void Click(Session& s, xsim::Point p) {
  s.display().InjectButtonPress(p.x, p.y, 1);
  s.display().InjectButtonRelease(p.x, p.y, 1);
}

// --- Spans and the layer ladder (traced run) -----------------------------------

// Span names are these arrays, so a name's address identifies it.
constexpr char kSpanOp[] = "op";
constexpr char kSpanClick[] = "click";
constexpr char kSpanReply[] = "reply";
constexpr char kSpanRedraw[] = "ladder.redraw";
constexpr char kSpanXt[] = "ladder.xt";
constexpr char kSpanEval[] = "ladder.eval";
constexpr char kSpanProtocol[] = "ladder.protocol";
constexpr char kSpanCreate[] = "xt.create";
constexpr char kSpanDestroy[] = "xt.destroy";

// Spans the benchmark records around its calls into wafe. They are held in
// memory, share one id per operation, and are written out at the end.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  void BeginOp() { ++op_; }
  void Add(const char* name, std::uint64_t start, std::uint64_t end) {
    durations_[name].push_back(static_cast<double>(end - start) / 1000.0);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(Span{op_, name, start, end - start});
    } else {
      ++dropped_;
    }
  }
  // Durations in microseconds of every span with this name.
  const std::vector<double>& Durations(const char* name) { return durations_[name]; }
  double SumUs(const char* name) {
    double sum = 0;
    for (double d : durations_[name]) {
      sum += d;
    }
    return sum;
  }

  // Chrome trace_event JSON; one lane, the op id in args.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      Die("cannot write spans to " + path);
    }
    std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"dropped\":" << dropped_ << ",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%llu}}%s\n",
                    sp.name, static_cast<double>(sp.start_ns - base) / 1000.0,
                    static_cast<double>(sp.dur_ns) / 1000.0,
                    static_cast<unsigned long long>(sp.op), i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
  }
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint64_t op;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::map<const char*, std::vector<double>> durations_;
};

// The E2 ladder: one operation's reply applied at four entry points, each
// timed as a span. Rung r's self time is rung r minus rung r-1:
//   xsim = Redraw, xt = SetValues - Redraw, tcl = Eval - SetValues,
//   comm = fd write + RunOneIteration - Eval.
enum Rung { kRedraw = 0, kXt = 1, kEval = 2, kProtocol = 3 };
constexpr const char* kRungSpan[4] = {kSpanRedraw, kSpanXt, kSpanEval, kSpanProtocol};

struct LadderOp {
  std::array<double, 4> us{};  // per rung, microseconds
  std::size_t lines = 0;
};

class Ladder {
 public:
  explicit Ladder(SpanLog& spans) : spans_(spans) {}
  // Times `fn` as rung `r` of the current operation.
  template <typename Fn>
  void Time(Rung r, Fn&& fn) {
    std::uint64_t t0 = NowNs();
    fn();
    std::uint64_t t1 = NowNs();
    spans_.Add(kRungSpan[r], t0, t1);
    current_.us[r] += static_cast<double>(t1 - t0) / 1000.0;
  }
  void EndOp(std::size_t lines) {
    current_.lines = lines;
    ops_.push_back(current_);
    current_ = LadderOp{};
  }
  const std::vector<LadderOp>& ops() const { return ops_; }

 private:
  SpanLog& spans_;
  LadderOp current_;
  std::vector<LadderOp> ops_;
};

// --- Workloads -----------------------------------------------------------------

// Generated values may hold one "@", replaced by a variant number: the
// untraced loop uses variant 0, and each ladder rung its own, so the Tcl
// compile cache sees fresh text at every rung as it does in the loop.
std::string WithVariant(std::string value, int variant) {
  std::size_t at = value.find('@');
  if (at != std::string::npos) {
    value.replace(at, 1, std::to_string(variant));
  }
  return value;
}

// One reply update: `sV <widget> <resource> {<value>}`.
struct Update {
  std::string widget;
  std::string resource;
  std::string value;

  std::string Value(int variant) const { return WithVariant(value, variant); }
  std::string Line(int variant) const {
    return "%sV " + widget + " " + resource + " {" + Value(variant) + "}\n";
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The %-lines that build the initial tree, sent over the backend fd.
  virtual std::string TreeLines() const = 0;
  // Called once on the session the run measures.
  virtual void Attach(Session&) {}
  // Generates the next operation from `rng` (before the clock starts) and
  // returns its input text for the digest.
  virtual std::string Generate(Session& s, Rng& rng) = 0;
  // Units of work in the generated operation (lines for stream).
  virtual std::size_t Units() const { return 1; }
  // Plays the generated operation over the protocol fds; false when an
  // output check failed.
  virtual bool Play(Session& s, SpanLog* spans) = 0;
  // Plays the generated operation through the four ladder rungs.
  virtual bool PlayLadder(Session& s, Ladder& ladder, SpanLog& spans, int rotation) = 0;
  // Output checks after the run; false (with *why) on a mismatch.
  virtual bool Finish(Session& s, std::string* why) = 0;
  // Breaks one expectation on purpose (--fault).
  virtual void BreakExpectation() = 0;
  // Operations after which rss_mb is read (reached early in a default run).
  virtual std::size_t RssOps() const = 0;
  // The tree's top form, under which the traced run probes widget creation
  // when the workload's own operations create none.
  virtual const char* Form() const = 0;
  // A Command whose callback echoes "probe <name>", clicked by the traced
  // run when the workload's own operations click nothing.
  virtual const char* ProbeButton() const { return nullptr; }

  // What the last failed check saw.
  std::string failure;

 protected:
  // Exactly one line from the frontend, equal to `expect`.
  bool ExpectOneLine(Session& s, const std::string& expect) {
    std::vector<std::string> lines = s.backend->ReadLines();
    if (lines.size() == 1 && lines[0] == expect) {
      return true;
    }
    failure = "expected {" + expect + "}, the frontend sent " + std::to_string(lines.size()) +
              " line(s)" + (lines.empty() ? "" : ", first {" + lines[0] + "}");
    return false;
  }
};

// Applies updates at rungs Redraw / SetValues / Eval / fd+loop; `apply`
// records each executed update in the caller's model.
template <typename Apply>
void LadderUpdates(Session& s, Ladder& ladder, int rotation, const std::vector<Update>& ups,
                   Apply&& apply) {
  std::array<Rung, 3> order = {kXt, kEval, kProtocol};
  std::rotate(order.begin(), order.begin() + rotation % 3, order.end());
  std::vector<xtk::Widget*> widgets;
  for (const Update& u : ups) {
    widgets.push_back(s.Find(u.widget));
  }
  ladder.Time(kRedraw, [&] {
    for (xtk::Widget* w : widgets) {
      s.xt().Redraw(w);
    }
  });
  for (Rung r : order) {
    int variant = static_cast<int>(r) + 1;
    if (r == kXt) {
      std::vector<Pairs> args;
      for (const Update& u : ups) {
        args.push_back({{u.resource, u.Value(variant)}});
      }
      ladder.Time(kXt, [&] {
        std::string error;
        for (std::size_t i = 0; i < ups.size(); ++i) {
          s.xt().SetValues(widgets[i], args[i], &error);
        }
      });
    } else {
      std::vector<std::string> lines;
      std::string text;
      for (const Update& u : ups) {
        lines.push_back(u.Line(variant));
        text += lines.back();
      }
      if (r == kEval) {
        ladder.Time(kEval, [&] {
          for (const std::string& line : lines) {
            s.app->Eval(std::string_view(line).substr(1, line.size() - 2));
          }
        });
      } else {
        ladder.Time(kProtocol, [&] {
          s.backend->Write(text);
          s.backend->Pump();
        });
      }
    }
    for (const Update& u : ups) {
      apply(u, variant);
    }
  }
  ladder.EndOp(ups.size());
}

// interactive: one user on a ~20-widget form clicks buttons, types a word
// and presses Return, or selects list items. Each callback line arrives on
// the backend fd; the backend answers with 3-4 sV updates.
class Interactive : public Workload {
 public:
  static constexpr int kButtons = 6;
  static constexpr int kStatus = 8;
  static constexpr int kItems = 8;

  std::string TreeLines() const override {
    std::string t = "%form top topLevel\n%label title top label {wafe perfbench} width 360\n";
    for (int i = 0; i < kButtons; ++i) {
      t += "%command b" + std::to_string(i) + " top label b" + std::to_string(i) +
           " width 54 fromVert title" +
           (i > 0 ? " fromHoriz b" + std::to_string(i - 1) : std::string()) +
           " callback {echo click %w}\n";
    }
    t += "%asciiText entry top editType edit width 360 fromVert b0\n";
    t += "%action entry override {<Key>Return: exec(echo enter [gV entry string])}\n";
    t += "%list items top width 360 fromVert entry list {" + Join(InitialItems()) +
         "} callback {echo select %i %s}\n";
    for (int i = 0; i < kStatus; ++i) {
      t += "%label st" + std::to_string(i) + " top label {} width 360 fromVert " +
           (i == 0 ? std::string("items") : "st" + std::to_string(i - 1)) + "\n";
    }
    t += "%realize\n";
    return t;
  }

  void Attach(Session& s) override {
    items_ = InitialItems();
    s.display().SetInputFocus(s.Find("entry")->window());
  }

  std::string Generate(Session& s, Rng& rng) override {
    ups_.clear();
    std::size_t kind = rng.Below(4);
    std::string input;
    if (kind <= 1) {
      int b = static_cast<int>(rng.Below(kButtons));
      xtk::Widget* w = s.Find("b" + std::to_string(b));
      click_ = Inside(s, w, w->width() / 2, w->height() / 2);
      typed_.clear();
      expect_ = "click b" + std::to_string(b);
      ups_.push_back({"b" + std::to_string(b), "label", rng.Word(2, 4) + "@"});
      input = "click " + std::to_string(b);
    } else if (kind == 2) {
      typed_ = rng.Word(3, 6);
      expect_ = "enter " + typed_;
      ups_.push_back({"entry", "string", ""});
      input = "type " + typed_;
    } else {
      int row = static_cast<int>(rng.Below(kItems));
      xtk::Widget* list = s.Find("items");
      long row_h = static_cast<long>(list->GetFont("font")->Height()) + list->GetLong("rowSpacing", 2);
      click_ = Inside(s, list, 4, list->GetLong("internalHeight", 2) + row_h * row + row_h / 2);
      typed_.clear();
      expect_ = "select " + std::to_string(row) + " " + items_[static_cast<std::size_t>(row)];
      pending_highlight_ = row;
      if (rng.Below(2) == 0) {
        std::vector<std::string> items;
        for (int i = 0; i < kItems; ++i) {
          items.push_back(rng.Word(3, 8));
        }
        items.back() += "@";
        ups_.push_back({"items", "list", Join(items)});
      }
      input = "select " + std::to_string(row);
    }
    std::size_t total = 3 + rng.Below(2);
    while (ups_.size() < total) {
      ups_.push_back({"st" + std::to_string(rng.Below(kStatus)), "label",
                      rng.Word(3, 9) + " " + std::to_string(rng.Below(100000)) + "@"});
    }
    reply_.clear();
    for (const Update& u : ups_) {
      reply_ += u.Line(0);
      input += "|" + u.Line(0);
    }
    return input;
  }

  bool Play(Session& s, SpanLog* spans) override {
    std::uint64_t t0 = NowNs();
    Inject(s);
    s.xt().ProcessPending();
    std::uint64_t t1 = NowNs();
    bool ok = CheckCallback(s);
    s.backend->Write(reply_);
    s.backend->Pump();
    std::uint64_t t2 = NowNs();
    if (spans != nullptr) {
      spans->Add(kSpanClick, t0, t1);
      spans->Add(kSpanReply, t1, t2);
    }
    for (const Update& u : ups_) {
      Apply(u, 0);
    }
    return ok;
  }

  bool PlayLadder(Session& s, Ladder& ladder, SpanLog& spans, int rotation) override {
    std::uint64_t t0 = NowNs();
    Inject(s);
    s.xt().ProcessPending();
    spans.Add(kSpanClick, t0, NowNs());
    bool ok = CheckCallback(s);
    LadderUpdates(s, ladder, rotation, ups_, [this](const Update& u, int v) { Apply(u, v); });
    return ok;
  }

  // The final framebuffer, with the pointer moved off the window, must equal
  // that of a fresh frontend built directly at the final widget state.
  bool Finish(Session& s, std::string* why) override {
    std::string final_lines;
    for (const auto& [key, value] : final_) {
      final_lines += "%sV " + key.first + " " + key.second + " {" + value + "}\n";
    }
    if (highlight_ >= 0) {
      final_lines += "%listHighlight items " + std::to_string(highlight_) + "\n";
    }
    Session fresh = NewSession(TreeLines() + final_lines);
    fresh.display().SetInputFocus(fresh.Find("entry")->window());
    for (Session* x : {&s, &fresh}) {
      x->display().InjectMotion(x->display().width() - 1, x->display().height() - 1);
      x->xt().ProcessPending();
    }
    std::uint64_t live = FramebufferHash(s.display());
    std::uint64_t want = FramebufferHash(fresh.display());
    if (live != want) {
      *why = "framebuffer " + Hex(live) + " != fresh frontend at the final state " + Hex(want);
      return false;
    }
    return true;
  }

  void BreakExpectation() override { final_[{"st0", "label"}] = "fault"; }
  std::size_t RssOps() const override { return 50000; }
  const char* Form() const override { return "top"; }

 private:
  static std::string Join(const std::vector<std::string>& items) {
    std::string out;
    for (const std::string& item : items) {
      out += (out.empty() ? "" : ",") + item;
    }
    return out;
  }
  static std::vector<std::string> InitialItems() {
    std::vector<std::string> items;
    for (int i = 0; i < kItems; ++i) {
      items.push_back("item" + std::to_string(i));
    }
    return items;
  }
  static std::vector<std::string> Split(const std::string& list) {
    std::vector<std::string> items(1);
    for (char c : list) {
      if (c == ',') {
        items.emplace_back();
      } else {
        items.back().push_back(c);
      }
    }
    return items;
  }

  void Inject(Session& s) {
    if (typed_.empty()) {
      Click(s, click_);
    } else {
      s.display().InjectText(typed_);
      s.display().InjectKeyPress(xsim::kKeyReturn);
      s.display().InjectKeyRelease(xsim::kKeyReturn);
    }
  }

  // Exactly one callback line, equal to the injected input.
  bool CheckCallback(Session& s) {
    if (pending_highlight_ >= 0) {
      highlight_ = pending_highlight_;
      pending_highlight_ = -1;
    }
    return ExpectOneLine(s, expect_);
  }

  void Apply(const Update& u, int variant) {
    std::string value = u.Value(variant);
    final_[{u.widget, u.resource}] = value;
    if (u.widget == "items") {
      items_ = Split(value);
      highlight_ = -1;
    }
  }

  std::vector<std::string> items_;
  std::map<std::pair<std::string, std::string>, std::string> final_;
  int highlight_ = -1;
  int pending_highlight_ = -1;
  xsim::Point click_{0, 0};
  std::string typed_;
  std::string expect_;
  std::vector<Update> ups_;
  std::string reply_;
};

// stream: a chatty backend writes pipe-sized batches of %-lines as fast as
// the frontend drains them. Most lines update Tcl state with values embedded
// in the text; 1 in 16 updates a widget; 1 in 64 is a malformed expression
// that must come back as exactly one `error` reply.
class Stream : public Workload {
 public:
  static constexpr std::size_t kBatchBytes = 64 * 1024;
  static constexpr int kSlots = 64;
  static constexpr int kLabels = 8;

  std::string TreeLines() const override {
    std::string t = "%form sf topLevel\n";
    for (int i = 0; i < kLabels; ++i) {
      t += "%label w" + std::to_string(i) + " sf label {} width 240" +
           (i > 0 ? " fromVert w" + std::to_string(i - 1) : std::string()) + "\n";
    }
    t += "%command sb sf label probe fromVert w7 callback {echo probe %w}\n";
    t += "%proc upd {k x y} {global s; set s($k) [expr {$x * 3 + $y}]}\n";
    t += "%realize\n";
    return t;
  }

  std::string Generate(Session&, Rng& rng) override {
    lines_.clear();
    std::size_t bytes = 0;
    while (bytes < kBatchBytes - 128) {
      Line l;
      std::size_t r = rng.Below(64);
      l.slot = static_cast<int>(rng.Below(kSlots));
      l.a = rng.Range(1, 999999);
      l.b = rng.Range(1, 9999);
      l.c = rng.Range(1, 9999);
      if (r == 0) {
        l.kind = kBad;
      } else if (r <= 4) {
        l.kind = kWidget;
        l.slot %= kLabels;
        l.word = rng.Word(3, 9);
      } else {
        l.kind = static_cast<Kind>(rng.Below(5));
        if (l.kind == kArray) {
          l.word = rng.Word(3, 9);
        }
      }
      bytes += Text(l, 0).size();
      lines_.push_back(std::move(l));
    }
    batch_ = Batch(0);
    return batch_;
  }
  std::size_t Units() const override { return lines_.size(); }

  bool Play(Session& s, SpanLog* spans) override {
    std::uint64_t t0 = NowNs();
    s.backend->Write(batch_);
    s.backend->Pump();
    std::uint64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Add(kSpanReply, t0, t1);
    }
    for (const Line& l : lines_) {
      Apply(l, 0);
    }
    return CheckErrors(s, Malformed());
  }

  bool PlayLadder(Session& s, Ladder& ladder, SpanLog&, int rotation) override {
    std::array<Rung, 3> order = {kXt, kEval, kProtocol};
    std::rotate(order.begin(), order.begin() + rotation % 3, order.end());
    std::vector<std::pair<xtk::Widget*, const Line*>> widgets;
    for (const Line& l : lines_) {
      if (l.kind == kWidget) {
        widgets.push_back({s.Find("w" + std::to_string(l.slot)), &l});
      }
    }
    ladder.Time(kRedraw, [&] {
      for (auto& [w, l] : widgets) {
        s.xt().Redraw(w);
      }
    });
    bool ok = true;
    for (Rung r : order) {
      int variant = static_cast<int>(r) + 1;
      if (r == kXt) {
        std::vector<Pairs> args;
        for (auto& [w, l] : widgets) {
          args.push_back({{"label", LabelValue(*l, variant)}});
        }
        ladder.Time(kXt, [&] {
          std::string error;
          for (std::size_t i = 0; i < widgets.size(); ++i) {
            s.xt().SetValues(widgets[i].first, args[i], &error);
          }
        });
        for (auto& [w, l] : widgets) {
          Apply(*l, variant);
        }
        continue;
      }
      if (r == kEval) {
        std::vector<std::string> texts;
        for (const Line& l : lines_) {
          texts.push_back(Text(l, variant));
        }
        std::size_t errors = 0;
        ladder.Time(kEval, [&] {
          for (const std::string& t : texts) {
            if (s.app->Eval(std::string_view(t).substr(1, t.size() - 2)).code == wtcl::Status::kError) {
              ++errors;
            }
          }
        });
        if (errors != Malformed()) {
          failure = std::to_string(Malformed()) + " malformed lines failed " +
                    std::to_string(errors) + " evals";
          ok = false;
        }
      } else {
        std::string batch = Batch(variant);
        ladder.Time(kProtocol, [&] {
          s.backend->Write(batch);
          s.backend->Pump();
        });
        ok &= CheckErrors(s, Malformed());
      }
      for (const Line& l : lines_) {
        Apply(l, variant);
      }
    }
    ladder.EndOp(lines_.size());
    return ok;
  }

  // Every Tcl variable and label the batches touched must equal the model.
  bool Finish(Session& s, std::string* why) override {
    for (const auto& [name, want] : vars_) {
      wtcl::Result r = s.app->Eval("set " + name);
      if (r.code != wtcl::Status::kOk || r.value != want) {
        *why = "variable " + name + " is {" + r.value + "}, model says {" + want + "}";
        return false;
      }
    }
    for (const auto& [name, want] : labels_) {
      std::string got = s.Find(name)->GetString("label");
      if (got != want) {
        *why = "label " + name + " is {" + got + "}, model says {" + want + "}";
        return false;
      }
    }
    return true;
  }

  void BreakExpectation() override { vars_["v0"] = "fault"; }
  std::size_t RssOps() const override { return 300; }
  const char* Form() const override { return "sf"; }
  const char* ProbeButton() const override { return "sb"; }

 private:
  enum Kind { kSet, kIncr, kArray, kProc, kExpr, kWidget, kBad };
  struct Line {
    Kind kind = kSet;
    int slot = 0;
    long a = 0;
    long b = 0;
    long c = 0;
    std::string word;
  };

  static std::string LabelValue(const Line& l, int variant) {
    return l.word + " " + std::to_string(l.a + variant);
  }
  // The protocol text of a line; `variant` shifts its first number.
  static std::string Text(const Line& l, int variant) {
    std::string k = std::to_string(l.slot);
    std::string a = std::to_string(l.a + variant);
    std::string b = std::to_string(l.b);
    std::string c = std::to_string(l.c);
    switch (l.kind) {
      case kSet:
        return "%set v" + k + " " + a + "\n";
      case kIncr:
        return "%incr c" + k + " " + a + "\n";
      case kArray:
        return "%set a(key" + k + ") " + l.word + a + "\n";
      case kProc:
        return "%upd " + k + " " + a + " " + b + "\n";
      case kExpr:
        return "%set e" + k + " [expr {" + a + " * " + b + " + " + c + "}]\n";
      case kWidget:
        return "%sV w" + k + " label {" + LabelValue(l, variant) + "}\n";
      case kBad:
        return "%set m" + k + " [expr {" + a + " + * " + b + "}]\n";
    }
    return "";
  }
  std::string Batch(int variant) const {
    std::string batch;
    for (const Line& l : lines_) {
      batch += Text(l, variant);
    }
    return batch;
  }
  std::size_t Malformed() const {
    return static_cast<std::size_t>(
        std::count_if(lines_.begin(), lines_.end(), [](const Line& l) { return l.kind == kBad; }));
  }

  // The benchmark's own model of what each executed line leaves behind.
  void Apply(const Line& l, int variant) {
    std::string k = std::to_string(l.slot);
    long a = l.a + variant;
    switch (l.kind) {
      case kSet:
        vars_["v" + k] = std::to_string(a);
        break;
      case kIncr: {
        std::string& v = vars_["c" + k];
        v = std::to_string((v.empty() ? 0 : std::stol(v)) + a);
        break;
      }
      case kArray:
        vars_["a(key" + k + ")"] = l.word + std::to_string(a);
        break;
      case kProc:
        vars_["s(" + k + ")"] = std::to_string(a * 3 + l.b);
        break;
      case kExpr:
        vars_["e" + k] = std::to_string(a * l.b + l.c);
        break;
      case kWidget:
        labels_["w" + k] = LabelValue(l, variant);
        break;
      case kBad:
        break;
    }
  }

  // Exactly one `error` reply per malformed line, and nothing else.
  bool CheckErrors(Session& s, std::size_t malformed) {
    std::vector<std::string> replies = s.backend->ReadLines();
    bool ok = replies.size() == malformed;
    for (const std::string& r : replies) {
      ok &= r.rfind("error ", 0) == 0;
    }
    if (!ok) {
      failure = std::to_string(malformed) + " malformed lines got " +
                std::to_string(replies.size()) + " replies";
    }
    return ok;
  }

  std::vector<Line> lines_;
  std::string batch_;
  std::map<std::string, std::string> vars_;
  std::map<std::string, std::string> labels_;
};

// churn: each cycle opens a transient-shell dialog with a ~25-widget subtree
// built from string resources (colours, fonts, translations, callbacks),
// pops it up, clicks one button and destroys it.
class Churn : public Workload {
 public:
  static constexpr int kLabels = 12;
  static constexpr int kCommands = 6;
  static constexpr int kTexts = 4;

  std::string TreeLines() const override {
    // An app-defaults style resource database, so every creation queries Xrm.
    return "%mergeResources *dbox*borderWidth 2 *dbox.Label.internalHeight 3 "
           "*Command.internalWidth 6\n"
           "%form cf topLevel\n%label cstatus cf label {churn} width 200\n"
           "%command cb cf label probe fromVert cstatus callback {echo probe %w}\n%realize\n";
  }

  void Attach(Session& s) override {
    base_widgets_ = s.xt().WidgetCount();
    base_windows_ = s.display().WindowCount();
  }

  std::string Generate(Session&, Rng& rng) override {
    static const char* const kColours[] = {"red", "navy", "white", "yellow", "orange",
                                           "green", "aliceblue", "bisque", "coral", "darkred"};
    static const char* const kFonts[] = {"fixed", "6x13", "9x15",
                                         "-*-helvetica-medium-r-*--12-*",
                                         "-*-courier-bold-r-*--14-*"};
    // A translations resource replaces the class table, so each one keeps
    // the Btn1 bindings the click needs.
    static const char* const kTranslations[] = {
        "<Btn1Down>: set()\\n<Btn1Up>: notify() unset()\\n<Key>Return: set() notify() unset()",
        "<Btn1Down>: set()\\n<Btn1Up>: notify() unset()\\n<Btn3Down>: highlight()\\n<Btn3Up>: reset()",
        "<EnterWindow>: highlight()\\n<LeaveWindow>: reset()\\n<Btn1Down>: set()\\n<Btn1Up>: notify() unset()",
        "#override\\n<Key>space: set() notify() unset()\\n<Btn1Down>: set()\\n<Btn1Up>: notify() unset()"};
    auto colour = [&] { return std::string(kColours[rng.Below(10)]); };
    auto font = [&] { return std::string(kFonts[rng.Below(5)]); };
    widgets_.clear();
    // The shell is sized explicitly: it does not grow to fit a Box that is
    // filled after it, and a clipped button could not be clicked.
    widgets_.push_back({"transientShell", "TransientShell", "dlg", "topLevel", {{"width", "440"}, {"height", "560"}}});
    widgets_.push_back({"box", "Box", "dbox", "dlg", {{"background", colour()}, {"width", "420"}}});
    for (int i = 0; i < kLabels; ++i) {
      widgets_.push_back({"label", "Label", "dl" + std::to_string(i), "dbox",
                          {{"label", rng.Word(3, 8) + "@"},
                           {"foreground", colour()},
                           {"background", colour()},
                           {"font", font()}}});
    }
    for (int i = 0; i < kCommands; ++i) {
      widgets_.push_back({"command", "Command", "dc" + std::to_string(i), "dbox",
                          {{"label", rng.Word(3, 8) + "@"},
                           {"foreground", colour()},
                           {"callback", "echo pressed %w"},
                           {"translations", kTranslations[rng.Below(4)]}}});
    }
    for (int i = 0; i < kTexts; ++i) {
      widgets_.push_back({"asciiText", "AsciiText", "dt" + std::to_string(i), "dbox",
                          {{"string", rng.Word(3, 8) + "@"}, {"font", font()}, {"width", "120"}}});
    }
    clicked_ = "dc" + std::to_string(rng.Below(kCommands));
    expect_ = "pressed " + clicked_;
    create_ = Lines(0);
    return create_ + clicked_;
  }

  bool Play(Session& s, SpanLog* spans) override {
    std::uint64_t t0 = NowNs();
    s.backend->Write(create_);
    s.backend->Pump();
    std::uint64_t t1 = NowNs();
    bool ok = ClickAndCheck(s);
    std::uint64_t t2 = NowNs();
    s.backend->Write("%destroyWidget dlg\n");
    s.backend->Pump();
    std::uint64_t t3 = NowNs();
    if (spans != nullptr) {
      spans->Add(kSpanReply, t0, t1);
      spans->Add(kSpanClick, t1, t2);
      spans->Add(kSpanReply, t2, t3);
    }
    return ok && CheckBaseline(s);
  }

  bool PlayLadder(Session& s, Ladder& ladder, SpanLog& spans, int rotation) override {
    std::array<Rung, 3> order = {kXt, kEval, kProtocol};
    std::rotate(order.begin(), order.begin() + rotation % 3, order.end());
    bool ok = true;
    for (Rung r : order) {
      int variant = static_cast<int>(r) + 1;
      if (r == kXt) {
        std::vector<Pairs> args;
        for (const Spec& w : widgets_) {
          args.push_back(Args(w, variant));
        }
        ladder.Time(kXt, [&] {
          std::string error;
          for (std::size_t i = 0; i < widgets_.size(); ++i) {
            const Spec& w = widgets_[i];
            std::uint64_t t0 = NowNs();
            s.xt().CreateWidget(w.name, w.xt_class, s.Find(w.parent), args[i], i > 0, &error);
            spans.Add(kSpanCreate, t0, NowNs());
          }
          s.xt().Popup(s.Find("dlg"), xtk::GrabKind::kNone);
          s.xt().ProcessPending();
          std::uint64_t t0 = NowNs();
          s.xt().DestroyWidget(s.Find("dlg"));
          s.xt().ProcessPending();
          spans.Add(kSpanDestroy, t0, NowNs());
        });
      } else if (r == kEval) {
        std::vector<std::string> lines;
        std::string text = Lines(variant);
        for (std::size_t at = 0, nl; (nl = text.find('\n', at)) != std::string::npos; at = nl + 1) {
          lines.push_back(text.substr(at + 1, nl - at - 1));
        }
        ladder.Time(kEval, [&] {
          for (const std::string& line : lines) {
            s.app->Eval(line);
          }
          s.app->Eval("destroyWidget dlg");
        });
      } else {
        std::string create = Lines(variant);
        ladder.Time(kProtocol, [&] {
          s.backend->Write(create);
          s.backend->Pump();
        });
        // The dialog is up: time its repaint (the xsim rung) and the click.
        ladder.Time(kRedraw, [&] { s.xt().Redraw(s.Find("dlg")); });
        std::uint64_t t0 = NowNs();
        ok &= ClickAndCheck(s);
        spans.Add(kSpanClick, t0, NowNs());
        ladder.Time(kProtocol, [&] {
          s.backend->Write("%destroyWidget dlg\n");
          s.backend->Pump();
        });
      }
      ok &= CheckBaseline(s);
    }
    ladder.EndOp(widgets_.size() + 2);
    return ok;
  }

  bool Finish(Session& s, std::string* why) override {
    if (!CheckBaseline(s)) {
      *why = "widget/window counts did not return to baseline";
      return false;
    }
    return true;
  }

  void BreakExpectation() override { ++base_widgets_; }
  std::size_t RssOps() const override { return 3000; }
  const char* Form() const override { return "cf"; }
  const char* ProbeButton() const override { return "cb"; }

 private:
  struct Spec {
    std::string command;
    std::string xt_class;
    std::string name;
    std::string parent;
    Pairs args;
  };

  static Pairs Args(const Spec& w, int variant) {
    Pairs args = w.args;
    for (auto& [name, value] : args) {
      value = WithVariant(value, variant);
      if (name == "translations") {
        for (std::size_t nl; (nl = value.find("\\n")) != std::string::npos;) {
          value.replace(nl, 2, "\n");
        }
      }
    }
    return args;
  }

  std::string Lines(int variant) const {
    std::string out;
    for (const Spec& w : widgets_) {
      out += "%" + w.command + " " + w.name + " " + w.parent;
      for (const auto& [name, value] : w.args) {
        std::string v = WithVariant(value, variant);
        // Translation tables carry \n escapes, so they go in quotes.
        out += " " + name + (name == "translations" ? " \"" + v + "\"" : " {" + v + "}");
      }
      out += "\n";
    }
    out += "%popup dlg none\n";
    return out;
  }

  bool ClickAndCheck(Session& s) {
    xtk::Widget* b = s.Find(clicked_);
    if (b == nullptr) {
      return false;
    }
    Click(s, Inside(s, b, b->width() / 2, b->height() / 2));
    s.xt().ProcessPending();
    return ExpectOneLine(s, expect_);
  }

  bool CheckBaseline(Session& s) {
    if (s.xt().WidgetCount() == base_widgets_ && s.display().WindowCount() == base_windows_) {
      return true;
    }
    failure = std::to_string(s.xt().WidgetCount()) + " widgets and " +
              std::to_string(s.display().WindowCount()) + " windows, baseline " +
              std::to_string(base_widgets_) + " and " + std::to_string(base_windows_);
    return false;
  }

  std::vector<Spec> widgets_;
  std::string create_;
  std::string clicked_;
  std::string expect_;
  std::size_t base_widgets_ = 0;
  std::size_t base_windows_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "interactive") {
    return std::make_unique<Interactive>();
  }
  if (name == "stream") {
    return std::make_unique<Stream>();
  }
  if (name == "churn") {
    return std::make_unique<Churn>();
  }
  return nullptr;
}

// --- Runs ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double burn_pct = 0;
  bool fault = false;
  std::string spans_path;
};

// The output: human-readable lines first, then one JSON object as the last
// line of stdout.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    std::printf("%-34s %14.6g %s\n", name.c_str(), value, unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", name.c_str(),
                  value, unit.c_str());
    metrics_ += (metrics_.empty() ? "" : ", ") + std::string(buf);
  }
  // A ratio, printed with its base.
  void Ratio(const std::string& name, double num, double den) {
    Metric(name, den > 0 ? num / den : 0, "ratio");
    std::printf("%-34s   base: %.0f of %.0f\n", "", num, den);
  }
  void Note(const std::string& text) { std::printf("  %s\n", text.c_str()); }
  void Finish(bool correct, std::size_t attempted, std::size_t failed) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, metrics_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string metrics_;
};

// The op loop every phase shares: generate (untimed), play, record.
class Runner {
 public:
  Runner(Workload& w, Session& s, std::uint64_t seed) : w_(w), s_(s), rng_(seed) {}

  // Plays one generated operation; returns its latency in microseconds.
  double PlayOne(SpanLog* spans) {
    std::string input = w_.Generate(s_, rng_);
    if (generated_ < kDigestOps) {
      digest_.Add(input);
    }
    ++generated_;
    const std::size_t draw_ops = s_.display().draw_ops().size();
    if (spans != nullptr) {
      spans->BeginOp();
    }
    std::uint64_t t0 = NowNs();
    bool ok = w_.Play(s_, spans);
    if (burn_pct_ > 0) {
      Burn(static_cast<std::uint64_t>(static_cast<double>(NowNs() - t0) * burn_pct_ / 100.0));
    }
    std::uint64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Add(kSpanOp, t0, t1);
      // The op log drops its oldest half when full; such ops are skipped.
      if (s_.display().draw_ops().size() >= draw_ops) {
        draw_ops_ += s_.display().draw_ops().size() - draw_ops;
        ++draw_ops_samples_;
      }
    }
    Count(ok);
    units_ += w_.Units();
    op_ns_ += t1 - t0;
    if (rss_ops_ != 0 && attempted_ == rss_ops_) {
      rss_mb_ = RssMb();
    }
    if (reference_ != nullptr) {
      reference_->AddOp(t1 - t0);
    }
    return static_cast<double>(t1 - t0) / 1000.0;
  }

  bool PlayLadderOne(Ladder& ladder, SpanLog& spans) {
    std::string input = w_.Generate(s_, rng_);
    if (generated_ < kDigestOps) {
      digest_.Add(input);
    }
    ++generated_;
    spans.BeginOp();
    bool ok = w_.PlayLadder(s_, ladder, spans, static_cast<int>(attempted_ % 3));
    Count(ok);
    return ok;
  }

  // Every operation spins this share of its own time on top (--burn-pct).
  void set_burn_pct(double pct) { burn_pct_ = pct; }
  void set_reference(HostReference* reference) { reference_ = reference; }
  // Resident memory is read once, after this many operations: a fixed
  // amount of work, so per-operation growth shows without depending on how
  // fast the host ran. 0 reads nothing.
  void set_rss_ops(std::size_t ops) { rss_ops_ = ops; }
  double rss_mb() const { return rss_mb_; }
  // Operation time so far (excluding input generation and reference slices).
  double op_seconds() const { return static_cast<double>(op_ns_) / 1e9; }
  // Draw ops logged per traced operation.
  double draw_ops_per_op() const {
    return draw_ops_samples_ == 0 ? 0 : static_cast<double>(draw_ops_) / static_cast<double>(draw_ops_samples_);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  std::size_t units() const { return units_; }
  // Counts one more attempted operation; a failed one keeps its reason.
  void Count(bool ok) {
    ++attempted_;
    if (!ok && failed_++ == 0) {
      first_failure_ = "operation " + std::to_string(attempted_) + ": " + w_.failure;
    }
  }
  const std::string& first_failure() const { return first_failure_; }
  std::string digest() const {
    return Hex(digest_.value()) + " (first " + std::to_string(std::min(generated_, kDigestOps)) +
           " ops)";
  }

 private:
  static constexpr std::size_t kDigestOps = 256;
  Workload& w_;
  Session& s_;
  Rng rng_;
  Digest digest_;
  std::size_t generated_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t units_ = 0;
  double burn_pct_ = 0;
  std::size_t draw_ops_ = 0;
  std::size_t draw_ops_samples_ = 0;
  std::string first_failure_;
  std::uint64_t op_ns_ = 0;
  HostReference* reference_ = nullptr;
  std::size_t rss_ops_ = 0;
  double rss_mb_ = 0;
};

// Builds the measured session: sets up kSetups frontends and keeps the
// last. Each set-up is followed by a reference slice and scaled by it, since
// the host can change speed between one set-up and the next. Returns the
// median scaled set-up time in seconds.
constexpr int kSetups = 101;
double SetUp(Workload& w, Session* live, Digest* digest, double* raw_s) {
  std::string tree = w.TreeLines();
  digest->Add(tree);
  HostReference reference;
  std::vector<double> raw;
  std::vector<double> scaled;
  for (int i = 0; i < kSetups; ++i) {
    std::uint64_t t0 = NowNs();
    Session s = NewSession(tree);
    raw.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (i + 1 == kSetups) {
      *live = std::move(s);
    }
    scaled.push_back(raw.back() * HostReference::kNominalSliceUs / reference.Slice());
  }
  w.Attach(*live);
  *raw_s = Median(raw);
  return Median(scaled);
}

// Runs ops for `seconds`, returning per-op latencies.
std::vector<double> Loop(Runner& runner, double seconds, SpanLog* spans) {
  std::vector<double> lat;
  std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    lat.push_back(runner.PlayOne(spans));
  }
  return lat;
}

// The percentiles printed but not gated: p50 jumps between the host's
// modes, and p99 has too few samples beyond it to repeat.
void Percentiles(Report& report, const std::vector<double>& lat) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "driver.latency_p50_us %.2f us, driver.latency_p99_us %.2f us "
                "(n=%zu, %zu beyond p99; printed, not gated)",
                Quantile(lat, 0.5), Quantile(lat, 0.99), lat.size(), lat.size() / 100);
  report.Note(buf);
}

// --trace 0: the gated end-to-end metrics, wobs fully off.
int RunGated(const Options& o, Workload& w) {
  Report report;
  Session s;
  Digest tree_digest;
  double setup_raw_s = 0;
  double setup_s = SetUp(w, &s, &tree_digest, &setup_raw_s);
  Runner runner(w, s, o.seed);
  HostReference reference;
  runner.set_reference(&reference);
  runner.set_rss_ops(w.RssOps());
  // Warm-up: caches fill and lazy set-up finishes before timing.
  Loop(runner, o.seconds * 0.1, nullptr);
  runner.set_burn_pct(o.burn_pct);
  reference.Reset();
  const std::size_t units_before = runner.units();
  std::vector<double> raw = Loop(runner, o.seconds * 0.9, nullptr);
  std::vector<double> lat = reference.ScaledOpsUs();
  // Work per second of operation time: input generation and reference
  // slices are the benchmark's, not the frontend's.
  double op_us = 0;
  for (double us : lat) {
    op_us += us;
  }
  const double throughput = static_cast<double>(runner.units() - units_before) / (op_us / 1e6);
  double rss_mb = runner.rss_mb();
  if (rss_mb == 0) {
    rss_mb = RssMb();
    report.Note("run ended before " + std::to_string(w.RssOps()) + " operations; rss_mb read at the end");
  }
  if (o.fault) {
    w.BreakExpectation();
  }
  if (!w.Finish(s, &w.failure)) {
    runner.Count(false);
  }
  report.Note("workload " + o.workload + " seed " + std::to_string(o.seed) + " input digest " +
              Hex(tree_digest.value()) + "/" + runner.digest());
  char buf[300];
  std::snprintf(buf, sizeof(buf),
                "host reference: %zu slices, mean %.1f us (nominal %.0f us), time scale %.4f; "
                "raw p90 %.2f us, raw setup %.6f s",
                reference.slices(), reference.mean_slice_us(), HostReference::kNominalSliceUs,
                reference.time_scale(), Quantile(raw, 0.9), setup_raw_s);
  report.Note(buf);
  Percentiles(report, lat);
  report.Metric("throughput_per_s", throughput, "1/s");
  report.Metric("latency_p90_us", Quantile(lat, 0.9), "us");
  report.Metric("rss_mb", rss_mb, "MB");
  report.Metric("setup_s", setup_s, "s");
  if (runner.failed() != 0) {
    report.Note("first failure: " + runner.first_failure());
  }
  bool correct = runner.failed() == 0;
  report.Finish(correct, runner.attempted(), runner.failed());
  return correct ? 0 : 1;
}

std::uint64_t Counter(const char* name) {
  std::uint64_t v = 0;
  if (!wobs::Registry::Instance().GetMetric(name, &v)) {
    Die(std::string("no wobs instrument named ") + name);
  }
  return v;
}

// Probe of a layer a workload's own operations do not exercise: `n` clicks
// on a probe Command whose callback echoes back.
double ClickProbe(Session& s, const std::string& button, bool* ok) {
  xtk::Widget* b = s.Find(button);
  xsim::Point p = Inside(s, b, b->width() / 2, b->height() / 2);
  std::vector<double> t;
  for (int i = 0; i < 300; ++i) {
    std::uint64_t t0 = NowNs();
    Click(s, p);
    s.xt().ProcessPending();
    t.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    std::vector<std::string> lines = s.backend->ReadLines();
    *ok &= lines.size() == 1 && lines[0] == "probe " + button;
  }
  return Median(t);
}

// Probe: create and destroy one Label under `parent`, `n` times.
void CreateProbe(Session& s, const std::string& parent, double* create_us, double* destroy_us) {
  std::vector<double> c;
  std::vector<double> d;
  std::string error;
  for (int i = 0; i < 300; ++i) {
    std::uint64_t t0 = NowNs();
    xtk::Widget* w = s.xt().CreateWidget("probe", "Label", s.Find(parent),
                                         {{"label", "probe"}, {"foreground", "navy"}}, true, &error);
    std::uint64_t t1 = NowNs();
    s.xt().DestroyWidget(w);
    s.xt().ProcessPending();
    std::uint64_t t2 = NowNs();
    c.push_back(static_cast<double>(t1 - t0) / 1000.0);
    d.push_back(static_cast<double>(t2 - t1) / 1000.0);
  }
  *create_us = Median(c);
  *destroy_us = Median(d);
}

// fork.wakeup_us: a forked helper's round trip minus the same round trip
// played in process, interleaved in blocks so host drift hits both.
bool ForkWakeup(double seconds, double* forked_us, double* inproc_us) {
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return false;
  }
  std::string helper(exe, static_cast<std::size_t>(n));
  helper = helper.substr(0, helper.rfind('/') + 1) + "perfbench_backend";

  wafe::Wafe forked;
  forked.set_backend_output(true);
  std::string error;
  if (!forked.frontend().SpawnBackend(helper, {}, &error)) {
    std::printf("perfbench: cannot spawn %s: %s\n", helper.c_str(), error.c_str());
    return false;
  }
  Session local = NewSession("");
  std::vector<double> f;
  std::vector<double> l;
  bool ok = true;
  std::uint64_t end = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  long i = 0;
  while (NowNs() < end) {
    for (int k = 0; k < 50; ++k, ++i) {
      std::string id = std::to_string(i);
      std::string pong;
      std::uint64_t t0 = NowNs();
      forked.frontend().SendToBackend(id);
      while (!(forked.interp().GetGlobalVar("pong", &pong) && pong == id) &&
             forked.frontend().backend_alive()) {
        forked.app().RunOneIteration(true);
      }
      f.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      ok &= pong == id;
    }
    for (int k = 0; k < 50; ++k, ++i) {
      std::string id = std::to_string(i);
      std::string pong;
      std::uint64_t t0 = NowNs();
      local.app->frontend().SendToBackend(id);
      std::vector<std::string> got = local.backend->ReadLines();
      local.backend->Write("%set pong " + (got.empty() ? std::string() : got[0]) + "\n");
      local.backend->Pump();
      l.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      ok &= local.app->interp().GetGlobalVar("pong", &pong) && pong == id;
    }
  }
  forked.frontend().CloseBackend();
  forked.frontend().WaitBackend();
  *forked_us = Median(f);
  *inproc_us = Median(l);
  return ok;
}

// --trace 1: the per-layer metrics. Phases, as shares of --seconds:
//   0.1   warm-up
//   0.4   alternating 100 ms chunks: untraced, and traced (wobs metrics on,
//         benchmark spans recorded); gives obs.trace_overhead_pct, and the
//         program counters, read once at the end over the traced chunks
//   0.35  the E2 ladder
//   0.15  probes and the forked round trip
// Times are scaled to reference-host time like the gated metrics.
int RunTraced(const Options& o, Workload& w) {
  Report report;
  Session s;
  Digest tree_digest;
  double setup_raw_s = 0;
  SetUp(w, &s, &tree_digest, &setup_raw_s);
  Runner runner(w, s, o.seed);
  SpanLog spans;
  Loop(runner, o.seconds * 0.1, nullptr);
  HostReference reference;
  runner.set_reference(&reference);

  wobs::Registry::Instance().ResetMetrics();
  std::size_t redraws = 0;
  std::size_t wakeups = 0;
  std::size_t traced_ops = 0;
  double units[2] = {0, 0};  // [untraced, traced]
  double op_s[2] = {0, 0};
  std::uint64_t phase_end = NowNs() + static_cast<std::uint64_t>(o.seconds * 0.4 * 1e9);
  for (int chunk = 0; NowNs() < phase_end; ++chunk) {
    const int traced = chunk % 2;
    wobs::SetMetricsEnabled(traced == 1);
    std::size_t ops0 = runner.attempted();
    std::size_t units0 = runner.units();
    double op_s0 = runner.op_seconds();
    std::size_t redraws0 = s.xt().redraw_count();
    std::size_t wakeups0 = s.backend->iterations();
    Loop(runner, 0.1, traced == 1 ? &spans : nullptr);
    units[traced] += static_cast<double>(runner.units() - units0);
    op_s[traced] += runner.op_seconds() - op_s0;
    if (traced == 1) {
      traced_ops += runner.attempted() - ops0;
      redraws += s.xt().redraw_count() - redraws0;
      wakeups += s.backend->iterations() - wakeups0;
    }
  }
  wobs::SetMetricsEnabled(false);

  Ladder ladder(spans);
  std::uint64_t ladder_end = NowNs() + static_cast<std::uint64_t>(o.seconds * 0.35 * 1e9);
  while (NowNs() < ladder_end) {
    std::uint64_t t0 = NowNs();
    runner.PlayLadderOne(ladder, spans);
    reference.AddOp(NowNs() - t0);
  }
  const double scale = reference.time_scale();

  bool probes_ok = true;
  double click_us = 0;
  double create_us = 0;
  double destroy_us = 0;
  const std::vector<double>& clicks = spans.Durations(kSpanClick);
  if (!clicks.empty()) {
    click_us = Median(clicks);
  } else if (w.ProbeButton() != nullptr) {
    click_us = ClickProbe(s, w.ProbeButton(), &probes_ok);
  }
  if (!spans.Durations(kSpanCreate).empty()) {
    double widgets = 0;
    for (const LadderOp& op : ladder.ops()) {
      widgets += static_cast<double>(op.lines - 2);
    }
    create_us = spans.SumUs(kSpanCreate) / widgets;
    destroy_us = spans.SumUs(kSpanDestroy) / widgets;
  } else {
    CreateProbe(s, w.Form(), &create_us, &destroy_us);
  }
  double forked_us = 0;
  double inproc_us = 0;
  probes_ok &= ForkWakeup(o.seconds * 0.15, &forked_us, &inproc_us);
  if (!probes_ok) {
    w.failure = "a probe's callback or the forked round trip did not come back as expected";
    runner.Count(false);
  }
  if (!w.Finish(s, &w.failure)) {
    runner.Count(false);
  }

  // Ladder self times: per-op differences of adjacent rungs, trimmed means
  // over ops. Their sum must match the protocol-entry total's.
  std::vector<double> self[4];
  std::vector<double> total;
  double lines = 0;
  for (const LadderOp& op : ladder.ops()) {
    self[0].push_back(op.us[kRedraw] * scale);
    for (int r = 1; r < 4; ++r) {
      self[r].push_back((op.us[r] - op.us[r - 1]) * scale);
    }
    total.push_back(op.us[kProtocol] * scale);
    lines += static_cast<double>(op.lines);
  }
  const double lines_per_op =
      ladder.ops().empty() ? 1 : lines / static_cast<double>(ladder.ops().size());
  const double self_us[4] = {TrimmedMean(self[0]), TrimmedMean(self[1]), TrimmedMean(self[2]),
                             TrimmedMean(self[3])};
  const double sum_self = self_us[0] + self_us[1] + self_us[2] + self_us[3];
  const double entry_total = TrimmedMean(total);
  constexpr double kLadderTolerance = 0.10;
  const double ladder_gap = entry_total > 0 ? (sum_self - entry_total) / entry_total : 1;
  if (std::abs(ladder_gap) > kLadderTolerance) {
    w.failure = "ladder self times do not add up to the protocol-entry total";
    runner.Count(false);
  }

  report.Note("workload " + o.workload + " seed " + std::to_string(o.seed) + " input digest " +
              Hex(tree_digest.value()) + "/" + runner.digest());
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "host reference: %zu slices, mean %.1f us (nominal %.0f us), time scale %.4f",
                reference.slices(), reference.mean_slice_us(), HostReference::kNominalSliceUs,
                scale);
  report.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "ladder over %zu ops (%.1f lines/op): xsim %.2f + xt %.2f + tcl %.2f + comm %.2f "
                "= %.2f us vs protocol-entry total %.2f us (trimmed means; gap %+.1f%%, "
                "tolerance %.0f%%)",
                ladder.ops().size(), lines_per_op, self_us[0], self_us[1], self_us[2], self_us[3],
                sum_self, entry_total, ladder_gap * 100, kLadderTolerance * 100);
  report.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "fork: forked round trip %.2f us, in-process %.2f us (raw); wakeup share %.0f%%",
                forked_us, inproc_us, forked_us > 0 ? 100 * (forked_us - inproc_us) / forked_us : 0);
  report.Note(buf);
  std::snprintf(buf, sizeof(buf), "counters over %zu traced ops; %zu spans%s", traced_ops,
                spans.size(), o.spans_path.empty() ? "" : (" written to " + o.spans_path).c_str());
  report.Note(buf);

  std::size_t draw_op_entries = 0;
  std::size_t fb_bytes = 0;
  for (xsim::Display* d : s.xt().Displays()) {
    draw_op_entries += d->draw_ops().size();
    fb_bytes += d->framebuffer().size() * sizeof(xsim::Pixel);
  }
  auto counter = [](const char* name) { return static_cast<double>(Counter(name)); };
  const double ops = static_cast<double>(traced_ops);
  report.Metric("xsim.paint_us", self_us[kRedraw], "us");
  report.Metric("xsim.draw_ops_per_op", runner.draw_ops_per_op(), "count");
  report.Metric("xsim.damage_flushes_per_op", counter("xsim.refresh.flushed") / ops, "count");
  report.Ratio("xsim.coalesced_ratio", counter("xsim.refresh.coalesced"),
               counter("xsim.refresh.requested"));
  report.Metric("xsim.framebuffer_bytes", static_cast<double>(fb_bytes), "bytes");
  report.Metric("xsim.draw_op_log_entries", static_cast<double>(draw_op_entries), "count");
  report.Metric("xt.setvalues_self_us", self_us[kXt], "us");
  report.Metric("xt.redraws_per_op", static_cast<double>(redraws) / ops, "count");
  report.Metric("xt.click_dispatch_us", click_us * scale, "us");
  report.Metric("xt.create_us_per_widget", create_us * scale, "us");
  report.Metric("xt.destroy_us_per_widget", destroy_us * scale, "us");
  report.Ratio("xt.converter_cache_hit_ratio", counter("xt.converter.cache.hits"),
               counter("xt.converter.cache.hits") + counter("xt.converter.cache.misses"));
  report.Metric("xt.xrm_queries_per_op", counter("xt.xrm.queries") / ops, "count");
  report.Ratio("xt.translations_compile_hit_ratio", counter("xt.translations.compile.hits"),
               counter("xt.translations.compile.hits") + counter("xt.translations.compile.misses"));
  report.Metric("tcl.self_us_per_line", self_us[kEval] / lines_per_op, "us");
  report.Ratio("tcl.script_cache_hit_ratio", counter("tcl.script.cache.hits"),
               counter("tcl.script.cache.hits") + counter("tcl.script.cache.misses"));
  report.Ratio("tcl.expr_cache_hit_ratio", counter("tcl.expr.cache.hits"),
               counter("tcl.expr.cache.hits") + counter("tcl.expr.cache.misses"));
  report.Metric("tcl.commands_per_op", counter("tcl.commands") / ops, "count");
  report.Metric("tcl.eval_errors_per_op", counter("comm.eval.errors") / ops, "count");
  report.Metric("comm.self_us_per_line", self_us[kProtocol] / lines_per_op, "us");
  report.Ratio("comm.lines_per_wakeup", counter("comm.lines.in"), static_cast<double>(wakeups));
  report.Metric("comm.bytes_in_per_op", counter("comm.bytes.in") / ops, "bytes");
  report.Metric("fork.wakeup_us", (forked_us - inproc_us) * scale, "us");
  // Throughput per second of operation time in each kind of chunk.
  report.Metric("obs.trace_overhead_pct",
                100.0 * ((units[0] / op_s[0]) / (units[1] / op_s[1]) - 1.0), "%");
  if (!o.spans_path.empty()) {
    spans.Write(o.spans_path);
  }
  if (runner.failed() != 0) {
    report.Note("first failure: " + runner.first_failure());
  }
  bool correct = runner.failed() == 0;
  report.Finish(correct, runner.attempted(), runner.failed());
  return correct ? 0 : 1;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Die("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--burn-pct") {
      o.burn_pct = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--fault") {
      o.fault = true;
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (o.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(o.workload);
  if (w == nullptr) {
    Die("unknown workload '" + o.workload + "' (interactive, stream, churn)");
  }
  // The gated run keeps wobs fully off, whatever the environment says.
  wobs::SetMetricsEnabled(false);
  wobs::SetTraceEnabled(false);
  wobs::SetSlowThresholdNs(0);
  return o.trace ? RunTraced(o, *w) : RunGated(o, *w);
}
