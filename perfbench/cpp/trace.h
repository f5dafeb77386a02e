// Spans recorded by the benchmark around its calls into each layer of the
// library. A span carries a name ("<layer>.<what>"), start and end in host
// nanoseconds, the span that was open when it began, and the step it
// belongs to. Spans are kept in memory and written out when the run ends;
// a disabled tracer reads no clock and stores nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Steps outside the timed phase (set-up, probes) carry this step id.
inline constexpr std::uint32_t kNoStep = 0xffffffffu;

struct Span {
    const char* name = "";  ///< static string: "<layer>.<what>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into the span list, -1 for a root
    std::uint32_t step = kNoStep;
    std::uint32_t instance = 0;
};

class Tracer {
public:
    /// Closes its span when it leaves scope.
    class Scope {
    public:
        Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        ~Scope() {
            if (tracer_ != nullptr) tracer_->close(index_);
        }

    private:
        Tracer* tracer_;
        std::int32_t index_;
    };

    bool enabled() const noexcept { return enabled_; }
    void set_enabled(bool on) noexcept { enabled_ = on; }
    void set_step(std::uint32_t step) noexcept { step_ = step; }
    void set_instance(std::uint32_t instance) noexcept { instance_ = instance; }

    /// Opens a span named `name` (a string literal) under the innermost
    /// open span.
    [[nodiscard]] Scope span(const char* name) {
        if (!enabled_) return Scope(nullptr, -1);
        return Scope(this, open(name));
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Total duration of the spans named `name` in one instance, seconds;
    /// with `steps_only`, only spans inside the timed steps count.
    double total_seconds(const char* name, std::uint32_t instance, bool steps_only) const;

    /// Self time per layer in one instance: each span's duration minus the
    /// part its children cover, summed by the layer prefix of its name.
    /// Only spans under an `app.setup` or `app.step` root count, so
    /// stand-alone probes stay out of the workload's attribution.
    std::map<std::string, double> self_seconds(std::uint32_t instance) const;

    /// The spans of one instance, one JSON object per line; `id` is the
    /// span's index, which `parent` refers to.
    void write_jsonl(std::FILE* out, std::uint32_t instance) const;

private:
    std::int32_t open(const char* name);
    void close(std::int32_t index);

    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    bool enabled_ = false;
    std::uint32_t step_ = kNoStep;
    std::uint32_t instance_ = 0;
    std::int32_t current_ = -1;
    std::vector<Span> spans_;
};

}  // namespace perfbench
