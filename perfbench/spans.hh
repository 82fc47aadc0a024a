/**
 * @file
 * In-memory span and counter recorder for the benchmark runner.
 *
 * The runner wraps every call it makes into a dirsim module in a
 * Span; spans nest by call structure (a TraceRepository::get inside
 * an evaluation, an evaluation inside a pass).  Each top-level phase
 * (one setup, one timed pass, the decomposition pass) opens a new run
 * id that all of its spans share.  Nothing is written until the
 * runner prints its result, and with tracing off a scope costs one
 * branch, so untraced passes time the program alone.
 */

#ifndef DIRSIM_PERFBENCH_SPANS_HH
#define DIRSIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One recorded interval; times are seconds since the tracer epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; //!< Index into Tracer::spans(), -1 for a root.
    int run = -1;
};

/** A counter read at a span boundary. */
struct Counter
{
    std::string name;
    double value = 0.0;
    int run = -1;
};

/** What a run id stands for. */
struct RunInfo
{
    std::string kind; //!< "setup", "pass" or "decompose".
    bool traced = false;
};

class Tracer
{
  public:
    Tracer() : _epoch(Clock::now()) {}

    /** Seconds since the epoch (steady clock). */
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - _epoch)
            .count();
    }

    /** Open run @p kind; spans and counters attach to it until the
     *  next beginRun().  @p traced turns recording on for it. */
    void
    beginRun(const std::string &kind, bool traced)
    {
        _on = traced;
        _runs.push_back({kind, traced});
    }

    int currentRun() const { return static_cast<int>(_runs.size()) - 1; }

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int index) : _tracer(tracer), _index(index)
        {
        }
        ~Scope()
        {
            if (_tracer)
                _tracer->close(_index);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer;
        int _index;
    };

    /** Open a span named @p name under the innermost open span. */
    [[nodiscard]] Scope
    span(const char *name)
    {
        if (!_on)
            return Scope(nullptr, -1);
        Span s;
        s.name = name;
        s.parent = _open.empty() ? -1 : _open.back();
        s.run = currentRun();
        s.start = now();
        _spans.push_back(std::move(s));
        _open.push_back(static_cast<int>(_spans.size()) - 1);
        return Scope(this, _open.back());
    }

    /** Record @p value for @p name in the current run (traced only). */
    void
    count(const std::string &name, double value)
    {
        if (_on)
            _counters.push_back({name, value, currentRun()});
    }

    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<Counter> &counters() const { return _counters; }
    const std::vector<RunInfo> &runs() const { return _runs; }

  private:
    void
    close(int index)
    {
        _spans[static_cast<std::size_t>(index)].end = now();
        _open.pop_back();
    }

    Clock::time_point _epoch;
    bool _on = false;
    std::vector<Span> _spans;
    std::vector<int> _open;
    std::vector<Counter> _counters;
    std::vector<RunInfo> _runs;
};

} // namespace perfbench

#endif // DIRSIM_PERFBENCH_SPANS_HH
