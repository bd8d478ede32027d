// Tests for the observability subsystem (src/obs): metrics registry
// semantics, ring-buffer wraparound, concurrent span emission (exercised
// under TSan via check.sh), Chrome-trace JSON well-formedness — the exported
// document is parsed here with a mini JSON parser and checked for the same
// invariants scripts/trace_lint.py enforces — and the disabled-tracing
// overhead guard.

#include "core/rng.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace lph {
namespace {

// --------------------------------------------------------------------------
// Mini JSON parser: just enough for trace-event documents and metrics
// snapshots (objects, arrays, strings with escapes, numbers, bools, null).
// --------------------------------------------------------------------------

struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue* find(const std::string& key) const {
        for (const auto& [k, v] : object) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parse() {
        JsonValue v = value();
        skip_ws();
        if (pos_ != s_.size()) {
            ADD_FAILURE() << "trailing bytes after JSON value at " << pos_;
        }
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\r' || s_[pos_] == '\t')) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= s_.size()) {
            throw std::runtime_error("unexpected end of JSON");
        }
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            throw std::runtime_error(std::string("expected '") + c + "' at " +
                                     std::to_string(pos_) + ", got '" + peek() +
                                     "'");
        }
        ++pos_;
    }

    JsonValue value() {
        skip_ws();
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
        case 'f':
            return boolean();
        case 'n':
            literal("null");
            return JsonValue{};
        default:
            return number();
        }
    }

    void literal(const char* word) {
        for (const char* p = word; *p != '\0'; ++p) {
            expect(*p);
        }
    }

    JsonValue boolean() {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue number() {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) {
            throw std::runtime_error("bad number at " + std::to_string(start));
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    JsonValue string() {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                const char esc = s_[pos_++];
                switch (esc) {
                case 'n':
                    c = '\n';
                    break;
                case 't':
                    c = '\t';
                    break;
                case 'r':
                    c = '\r';
                    break;
                case 'u':
                    // Good enough for the control characters we emit.
                    c = static_cast<char>(
                        std::stoi(s_.substr(pos_, 4), nullptr, 16));
                    pos_ += 4;
                    break;
                default:
                    c = esc;
                }
            }
            v.text.push_back(c);
        }
        expect('"');
        return v;
    }

    JsonValue array() {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
            } else {
                expect(']');
                return v;
            }
        }
    }

    JsonValue object() {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            const JsonValue key = string();
            skip_ws();
            expect(':');
            v.object.emplace_back(key.text, value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
            } else {
                expect('}');
                return v;
            }
        }
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
    return JsonParser(text).parse();
}

/// Every test leaves the process-global tracer off and empty.
class ObsTest : public ::testing::Test {
protected:
    void TearDown() override {
        obs::Tracer::instance().disable();
        obs::Tracer::instance().reset();
    }
};

// --------------------------------------------------------------------------
// MetricsRegistry.
// --------------------------------------------------------------------------

double metric(const obs::MetricList& list, const std::string& name) {
    for (const auto& [metric_name, value] : list) {
        if (metric_name == name) {
            return value;
        }
    }
    ADD_FAILURE() << "metric '" << name << "' not in snapshot";
    return -1;
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
    obs::MetricsRegistry registry;
    registry.add("c.runs");
    registry.add("c.runs", 4);
    registry.set("g.workers", 8);
    registry.set("g.workers", 5); // last write wins
    registry.observe("h.ms", 2.0);
    registry.observe("h.ms", 6.0);
    registry.observe("h.ms", 4.0);

    const obs::MetricList snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(metric(snap, "c.runs"), 5.0);
    EXPECT_DOUBLE_EQ(metric(snap, "g.workers"), 5.0);
    EXPECT_DOUBLE_EQ(metric(snap, "h.ms.count"), 3.0);
    EXPECT_DOUBLE_EQ(metric(snap, "h.ms.sum"), 12.0);
    EXPECT_DOUBLE_EQ(metric(snap, "h.ms.min"), 2.0);
    EXPECT_DOUBLE_EQ(metric(snap, "h.ms.max"), 6.0);
    EXPECT_DOUBLE_EQ(metric(snap, "h.ms.avg"), 4.0);
    // Sorted by name.
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_LT(snap[i - 1].first, snap[i].first);
    }
}

TEST(MetricsRegistry, AbsorbAndAccumulatePrefix) {
    obs::MetricsRegistry registry;
    const obs::MetricList stats = {{"hits", 10.0}, {"misses", 2.0}};
    registry.absorb("cache.", stats);
    registry.absorb("cache.", stats); // gauges: overwrite, not add
    registry.accumulate("total.", stats);
    registry.accumulate("total.", stats); // counters: add

    const obs::MetricList snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(metric(snap, "cache.hits"), 10.0);
    EXPECT_DOUBLE_EQ(metric(snap, "total.hits"), 20.0);
    EXPECT_DOUBLE_EQ(metric(snap, "total.misses"), 4.0);
}

TEST(MetricsRegistry, SnapshotJsonParses) {
    obs::MetricsRegistry registry;
    registry.add("game.solves", 3);
    registry.set("game.workers", 4);
    const JsonValue doc = parse_json(registry.snapshot_json());
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_NE(doc.find("game.solves"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("game.solves")->number, 3.0);
    EXPECT_DOUBLE_EQ(doc.find("game.workers")->number, 4.0);
}

// --------------------------------------------------------------------------
// LogHistogram: bucket geometry, merge algebra, percentile accuracy.
// --------------------------------------------------------------------------

TEST(LogHistogram, BucketBoundariesAndMonotonicity) {
    // The first four buckets are exact.
    for (std::uint64_t v = 0; v < 4; ++v) {
        EXPECT_EQ(obs::LogHistogram::bucket_index(static_cast<double>(v)), v);
        EXPECT_DOUBLE_EQ(obs::LogHistogram::bucket_lower(v),
                         static_cast<double>(v));
    }
    // Every value lands in [bucket_lower, bucket_upper), and the index is
    // monotone in the value.
    std::uint64_t state = 42;
    std::vector<double> values = {0, 1, 3, 4, 5, 7, 8, 1023, 1024, 1025};
    for (int i = 0; i < 200; ++i) {
        values.push_back(static_cast<double>(splitmix64_next(state) >> (i % 50)));
    }
    std::sort(values.begin(), values.end());
    std::size_t previous = 0;
    for (const double v : values) {
        const std::size_t index = obs::LogHistogram::bucket_index(v);
        ASSERT_LT(index, obs::LogHistogram::kBucketCount);
        EXPECT_GE(index, previous) << "index not monotone at " << v;
        EXPECT_LE(obs::LogHistogram::bucket_lower(index), v);
        EXPECT_LT(v, obs::LogHistogram::bucket_upper(index));
        previous = index;
    }
    // Negative and NaN clamp to the zero bucket rather than crashing.
    EXPECT_EQ(obs::LogHistogram::bucket_index(-5.0), 0u);
}

TEST(LogHistogram, EmptyAndSingleValueEdges) {
    const obs::LogHistogram empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(empty.avg(), 0.0);

    obs::LogHistogram one;
    one.record(37.0);
    EXPECT_EQ(one.count(), 1u);
    // Percentiles of a single sample are that sample: the bucket midpoint
    // clamps to [min, max] = [37, 37].
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 37.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 37.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.999), 37.0);
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
    std::uint64_t state = 7;
    const auto random_histogram = [&state](int samples) {
        obs::LogHistogram h;
        for (int i = 0; i < samples; ++i) {
            h.record(static_cast<double>(splitmix64_next(state) >>
                                         (splitmix64_next(state) % 52)));
        }
        return h;
    };
    // Bucket counts, count, min, and max merge bit-exactly in any order;
    // `sum` is a double accumulator, so reassociation may move its last ulp.
    const auto equal = [](const obs::LogHistogram& x,
                          const obs::LogHistogram& y) {
        if (x.count() != y.count() || x.min() != y.min() ||
            x.max() != y.max()) {
            return false;
        }
        if (std::abs(x.sum() - y.sum()) >
            1e-12 * std::max(std::abs(x.sum()), std::abs(y.sum()))) {
            return false;
        }
        for (std::size_t i = 0; i < obs::LogHistogram::kBucketCount; ++i) {
            if (x.bucket(i) != y.bucket(i)) {
                return false;
            }
        }
        return true;
    };

    for (int round = 0; round < 10; ++round) {
        const obs::LogHistogram a = random_histogram(50);
        const obs::LogHistogram b = random_histogram(80);
        const obs::LogHistogram c = random_histogram(30);

        obs::LogHistogram ab = a;
        ab.merge(b);
        obs::LogHistogram ab_c = ab;
        ab_c.merge(c);

        obs::LogHistogram bc = b;
        bc.merge(c);
        obs::LogHistogram a_bc = a;
        a_bc.merge(bc);

        obs::LogHistogram ba = b;
        ba.merge(a);

        EXPECT_TRUE(equal(ab_c, a_bc)) << "merge not associative";
        EXPECT_TRUE(equal(ab, ba)) << "merge not commutative";
    }
}

TEST(LogHistogram, MergeEqualsRecordingEverything) {
    std::uint64_t state = 13;
    obs::LogHistogram left, right, all;
    for (int i = 0; i < 300; ++i) {
        const double v = static_cast<double>(splitmix64_next(state) >>
                                             (splitmix64_next(state) % 40));
        (i % 2 == 0 ? left : right).record(v);
        all.record(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    // The sum is a plain double sum, so merging regroups the additions:
    // equal up to reassociation rounding (values reach 2^64 here).
    EXPECT_NEAR(left.sum(), all.sum(), 1e-12 * all.sum());
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
    for (std::size_t i = 0; i < obs::LogHistogram::kBucketCount; ++i) {
        EXPECT_EQ(left.bucket(i), all.bucket(i)) << "bucket " << i;
    }
}

TEST(LogHistogram, PercentilesTrackExactQuantiles) {
    std::uint64_t state = 99;
    obs::LogHistogram h;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double v = static_cast<double>(1 + splitmix64_next(state) % 1000000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.50, 0.90, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double exact = values[std::min(rank, values.size()) - 1];
        const double approx = h.percentile(q);
        // Sub-bucketed base-2 buckets guarantee <= 25% relative error; the
        // reported value is a bucket midpoint, so allow that on both sides.
        EXPECT_NEAR(approx, exact, 0.25 * exact + 1.0)
            << "quantile " << q;
    }
}

TEST(LogHistogram, SnapshotExposesTailPercentiles) {
    obs::MetricsRegistry registry;
    for (int i = 1; i <= 100; ++i) {
        registry.observe("h.us", static_cast<double>(i));
    }
    const obs::MetricList snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(metric(snap, "h.us.count"), 100.0);
    // p50 near 50, p99 near 99 — bucket midpoints, so generous bounds.
    EXPECT_NEAR(metric(snap, "h.us.p50"), 50.0, 15.0);
    EXPECT_NEAR(metric(snap, "h.us.p99"), 99.0, 25.0);
    EXPECT_NEAR(metric(snap, "h.us.p999"), 100.0, 25.0);
    EXPECT_GE(metric(snap, "h.us.p90"), metric(snap, "h.us.p50"));
    EXPECT_GE(metric(snap, "h.us.p99"), metric(snap, "h.us.p90"));
    EXPECT_GE(metric(snap, "h.us.p999"), metric(snap, "h.us.p99"));
}

TEST(LogHistogram, AppendJsonShape) {
    obs::LogHistogram h;
    h.record(5.0);
    h.record(500.0);
    std::string out;
    h.append_json(out);
    const JsonValue doc = parse_json(out);
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    EXPECT_DOUBLE_EQ(doc.find("count")->number, 2.0);
    EXPECT_DOUBLE_EQ(doc.find("sum")->number, 505.0);
    EXPECT_DOUBLE_EQ(doc.find("min")->number, 5.0);
    EXPECT_DOUBLE_EQ(doc.find("max")->number, 500.0);
    ASSERT_NE(doc.find("buckets"), nullptr);
    ASSERT_EQ(doc.find("buckets")->kind, JsonValue::Kind::Array);
    double bucket_total = 0;
    for (const JsonValue& entry : doc.find("buckets")->array) {
        ASSERT_EQ(entry.kind, JsonValue::Kind::Array);
        ASSERT_EQ(entry.array.size(), 2u);
        bucket_total += entry.array[1].number;
    }
    EXPECT_DOUBLE_EQ(bucket_total, 2.0);
}

// --------------------------------------------------------------------------
// Tracer ring buffers.
// --------------------------------------------------------------------------

TEST_F(ObsTest, RingBufferWraparound) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable(16); // 16 is the minimum ring capacity

    // A fresh thread gets a fresh ring with the just-configured capacity.
    std::thread emitter([&] {
        for (std::uint64_t i = 0; i < 40; ++i) {
            tracer.record("test", "test.wrap", i * 10, 5, "i", i);
        }
    });
    emitter.join();

    bool found = false;
    for (const auto& track : tracer.snapshot()) {
        if (track.spans.empty() ||
            std::string(track.spans[0].name) != "test.wrap") {
            continue;
        }
        found = true;
        EXPECT_EQ(track.emitted, 40u);
        EXPECT_EQ(track.dropped, 24u);
        ASSERT_EQ(track.spans.size(), 16u);
        // Oldest surviving span first: records 24..39.
        for (std::size_t i = 0; i < track.spans.size(); ++i) {
            EXPECT_EQ(track.spans[i].arg, 24 + i);
            EXPECT_EQ(track.spans[i].start_us, (24 + i) * 10);
        }
    }
    EXPECT_TRUE(found) << "no ring captured the emitted spans";
}

TEST_F(ObsTest, ConcurrentEmissionWithLiveSnapshots) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable(1 << 10);

    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                LPH_SPAN_NAMED(span, "test", "test.concurrent");
                span.arg("i", static_cast<std::uint64_t>(i));
            }
        });
    }
    // Snapshot while the writers are running: must be race-free (TSan) and
    // never return malformed tracks.
    for (int i = 0; i < 20; ++i) {
        for (const auto& track : tracer.snapshot()) {
            EXPECT_GE(track.emitted, track.dropped);
            EXPECT_LE(track.spans.size(), std::size_t{1} << 10);
        }
    }
    for (std::thread& t : threads) {
        t.join();
    }

    std::uint64_t emitted = 0;
    for (const auto& track : tracer.snapshot()) {
        for (const obs::SpanRecord& span : track.spans) {
            if (std::string(span.name) == "test.concurrent") {
                // Quiesced: every surviving record must be intact.
                EXPECT_STREQ(span.cat, "test");
                EXPECT_STREQ(span.arg_name, "i");
            }
        }
        emitted += track.emitted;
    }
    EXPECT_EQ(emitted, static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
}

// --------------------------------------------------------------------------
// Chrome trace export.
// --------------------------------------------------------------------------

/// Walks the traceEvents list enforcing the trace_lint.py invariants:
/// balanced B/E with matching names per (pid, tid), monotone timestamps.
void expect_well_formed(const JsonValue& doc) {
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    std::map<std::pair<double, double>, std::vector<std::string>> stacks;
    std::map<std::pair<double, double>, double> last_ts;
    bool saw_thread_name = false;
    for (const JsonValue& ev : events->array) {
        ASSERT_EQ(ev.kind, JsonValue::Kind::Object);
        const JsonValue* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->text == "M") {
            saw_thread_name =
                saw_thread_name || ev.find("name")->text == "thread_name";
            continue;
        }
        const std::pair<double, double> key = {ev.find("pid")->number,
                                               ev.find("tid")->number};
        const double ts = ev.find("ts")->number;
        const auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second) << "timestamps go backwards";
        }
        last_ts[key] = ts;
        if (ph->text == "B") {
            stacks[key].push_back(ev.find("name")->text);
        } else if (ph->text == "E") {
            ASSERT_FALSE(stacks[key].empty()) << "E with no open B";
            EXPECT_EQ(stacks[key].back(), ev.find("name")->text);
            stacks[key].pop_back();
        } else {
            EXPECT_EQ(ph->text, "i");
        }
    }
    for (const auto& [key, stack] : stacks) {
        EXPECT_TRUE(stack.empty()) << "unclosed B events on tid " << key.second;
    }
    EXPECT_TRUE(saw_thread_name);
}

TEST_F(ObsTest, ChromeTraceWellFormed) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable(1 << 8);

    std::thread worker([&] {
        LPH_SPAN_NAMED(outer, "test", "test.outer");
        outer.arg("items", 3);
        for (int i = 0; i < 3; ++i) {
            LPH_SPAN("test", "test.inner");
            tracer.instant("test", "test.tick", "i",
                           static_cast<std::uint64_t>(i));
        }
    });
    worker.join();
    std::thread other([&] { LPH_SPAN("test", "test.other"); });
    other.join();
    tracer.disable();

    const std::string json = obs::chrome_trace_json();
    const JsonValue doc = parse_json(json);
    expect_well_formed(doc);

    // The nested spans actually made it out.
    std::map<std::string, int> begins;
    for (const JsonValue& ev : doc.find("traceEvents")->array) {
        if (ev.find("ph")->text == "B") {
            ++begins[ev.find("name")->text];
        }
    }
    EXPECT_EQ(begins["test.outer"], 1);
    EXPECT_EQ(begins["test.inner"], 3);
}

TEST_F(ObsTest, WriteChromeTraceRoundTrips) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable(1 << 8);
    std::thread worker([] { LPH_SPAN("test", "test.file"); });
    worker.join();
    tracer.disable();

    const std::string path = "test_obs_trace_tmp.json";
    ASSERT_TRUE(obs::write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    expect_well_formed(parse_json(buffer.str()));
    std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Disabled-tracing overhead guard.
// --------------------------------------------------------------------------

TEST_F(ObsTest, DisabledTracingIsCheap) {
    obs::Tracer::instance().disable();
    constexpr int kIterations = 1'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIterations; ++i) {
        LPH_SPAN("test", "test.disabled");
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // One relaxed load + branch per iteration: single-digit milliseconds in
    // practice.  The bound is deliberately generous (loaded CI machines,
    // sanitizer builds) while still catching an accidental always-on path,
    // which costs two clock reads + a record per span — orders of magnitude
    // above the bound.
    EXPECT_LT(ms, 1000.0);

    const auto tracks = obs::Tracer::instance().snapshot();
    for (const auto& track : tracks) {
        for (const obs::SpanRecord& span : track.spans) {
            EXPECT_STRNE(span.name, "test.disabled");
        }
    }
}

// --------------------------------------------------------------------------
// Session.
// --------------------------------------------------------------------------

TEST_F(ObsTest, SessionActivationNestsAndRestores) {
    EXPECT_EQ(obs::Session::active(), nullptr);
    obs::Session outer;
    outer.activate();
    EXPECT_EQ(obs::Session::active(), &outer);
    {
        obs::Session inner;
        inner.activate();
        EXPECT_EQ(obs::Session::active(), &inner);
    }
    EXPECT_EQ(obs::Session::active(), &outer);
}

TEST_F(ObsTest, SessionTracingSwitchAndMetricsFile) {
    obs::Session::Options options;
    options.tracing = true;
    {
        obs::Session session(options);
        EXPECT_TRUE(obs::Tracer::instance().enabled());
        session.metrics().add("game.solves", 2);
        const std::string path = "test_obs_metrics_tmp.json";
        ASSERT_TRUE(session.write_metrics_json(path));
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        const JsonValue doc = parse_json(buffer.str());
        ASSERT_NE(doc.find("game.solves"), nullptr);
        EXPECT_DOUBLE_EQ(doc.find("game.solves")->number, 2.0);
        std::remove(path.c_str());
    }
    EXPECT_FALSE(obs::Tracer::instance().enabled());
}

} // namespace
} // namespace lph
