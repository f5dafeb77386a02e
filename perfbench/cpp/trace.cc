#include "trace.h"

#include <cstring>

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.step = step_;
    s.instance = instance_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
}

void Tracer::close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
}

double Tracer::total_seconds(const char* name, std::uint32_t instance,
                             bool steps_only) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
        if (s.instance == instance && (!steps_only || s.step != kNoStep) &&
            std::strcmp(s.name, name) == 0) {
            ns += s.end_ns - s.start_ns;
        }
    }
    return static_cast<double>(ns) / 1e9;
}

std::map<std::string, double> Tracer::self_seconds(std::uint32_t instance) const {
    // Spans are stored in open order, so a parent always precedes its
    // children: one forward pass learns each span's root and how much of
    // each parent its children cover.
    std::vector<bool> counted(spans_.size(), false);
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.instance != instance) continue;
        if (s.parent < 0) {
            counted[i] = std::strcmp(s.name, "app.setup") == 0 ||
                         std::strcmp(s.name, "app.step") == 0;
        } else {
            const auto p = static_cast<std::size_t>(s.parent);
            counted[i] = counted[p];
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.instance != instance || !counted[i]) continue;
        const char* dot = std::strchr(s.name, '.');
        const std::string layer =
            dot != nullptr ? std::string(s.name, dot) : std::string(s.name);
        const std::int64_t own = (s.end_ns - s.start_ns) - covered[i];
        out[layer] += static_cast<double>(own) / 1e9;
    }
    return out;
}

void Tracer::write_jsonl(std::FILE* out, std::uint32_t instance) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.instance != instance) continue;
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%d,\"step\":%lld,\"instance\":%u}\n",
                     i, s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     s.step == kNoStep ? -1LL : static_cast<long long>(s.step),
                     s.instance);
    }
}

}  // namespace perfbench
