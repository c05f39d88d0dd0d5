// Fixture tests for tools/wlm-lint: every rule must both fire on a known-bad
// snippet and stay quiet on the corresponding clean/suppressed variant. The
// companion CTest `WlmLintSrcClean` runs the real binary over src/ and
// expects zero findings — together they demonstrate the contract is both
// enforceable and currently met.

#include "lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace wlm::lint {
namespace {

std::vector<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// D1 — nondeterminism sources.
// ---------------------------------------------------------------------------

TEST(LintD1Test, FlagsRandCall) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    int Pick() { return std::rand() % 7; }
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D1");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintD1Test, FlagsRandomDeviceAndWallClocks) {
  auto findings = LintSource("src/scheduling/foo.cc", R"(
    std::random_device rd;
    auto t = std::chrono::system_clock::now();
    auto s = std::chrono::steady_clock::now();
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"D1", "D1", "D1"}));
}

TEST(LintD1Test, FlagsGetenvAndTimeCalls) {
  auto findings = LintSource("src/core/foo.cc", R"(
    void Seed() {
      const char* s = getenv("WLM_SEED");
      long t = time(nullptr);
    }
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"D1", "D1"}));
}

TEST(LintD1Test, AllowsCommonDirectory) {
  auto findings = LintSource("src/common/rng.cc", R"(
    std::random_device rd;  // the wrapper itself may touch entropy
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintD1Test, IgnoresMemberAccessAndDeclarations) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    double a = event.time;
    double b = exec->dispatch_time();
    double time = 0.0;           // declaration, not a call
    void SetTime(double time);   // parameter name
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintD1Test, SuppressibleWithReason) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D1) hashing wall time into a debug label only
    long t = time(nullptr);
  )");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// D2 — unordered iteration feeding emission/selection surfaces.
// ---------------------------------------------------------------------------

TEST(LintD2Test, FlagsRangeForOverUnorderedMapCallingKill) {
  auto findings = LintSource("src/execution/foo.cc", R"(
    std::unordered_map<QueryId, double> victims_;
    void Sweep(Engine* engine) {
      for (const auto& [id, cost] : victims_) {
        (void)engine->Kill(id);
      }
    }
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D2");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintD2Test, FlagsIteratorLoopAndRngDraws) {
  auto findings = LintSource("src/workloads/foo.cc", R"(
    std::unordered_set<LockKey> keys_;
    void Draw(Rng* rng) {
      for (auto it = keys_.begin(); it != keys_.end(); ++it) {
        bool write = rng->Bernoulli(0.5);
      }
    }
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D2");
}

TEST(LintD2Test, OrderInsensitiveBodyIsClean) {
  auto findings = LintSource("src/faults/foo.cc", R"(
    std::unordered_map<int, double> active_;
    double Sum() {
      double total = 0.0;
      for (const auto& [id, mag] : active_) total += mag;
      return total;
    }
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintD2Test, UsesVarsDeclaredInSelfHeader) {
  auto findings = LintSource("src/core/foo.cc", R"(
    void Flush(EventLog* log) {
      for (QueryId id : running_) {
        log->Append(MakeEvent(id));
      }
    }
  )",
                             {"running_"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D2");
}

TEST(LintD2Test, SuppressibleWithReason) {
  auto findings = LintSource("src/execution/foo.cc", R"(
    std::unordered_map<QueryId, double> victims_;
    void Sweep(Engine* engine) {
      // wlm-lint: allow(D2) kill set is a singleton by construction
      for (const auto& [id, cost] : victims_) {
        (void)engine->Kill(id);
      }
    }
  )");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// D3 — sim clock hygiene.
// ---------------------------------------------------------------------------

TEST(LintD3Test, FlagsFloatAndClockAccumulationInSim) {
  auto findings = LintSource("src/sim/simulation.cc", R"(
    float drift = 0.0f;
    void Step(double dt) { now_ += dt; }
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"D3", "D3"}));
}

TEST(LintD3Test, AbsoluteAssignmentIsClean) {
  auto findings = LintSource("src/sim/simulation.cc", R"(
    void Step(const Event& e) { now_ = e.when; }
    void RunFor(double d) { RunUntil(now_ + d); }
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintD3Test, OutsideSimDirectoryNotInScope) {
  auto findings = LintSource("src/control/pid.cc", R"(
    float gain = 0.5f;
  )");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// H1 — [[nodiscard]] on public bool/Status/Result APIs in engine/core.
// ---------------------------------------------------------------------------

TEST(LintH1Test, FlagsPublicStatusWithoutNodiscard) {
  auto findings = LintSource("src/engine/foo.h", R"(
    class Engine {
     public:
      Status Kill(QueryId id);
    };
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "H1");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintH1Test, NodiscardAndNonPublicAndVoidAreClean) {
  auto findings = LintSource("src/core/foo.h", R"(
    class Manager {
     public:
      [[nodiscard]] Status Submit(QuerySpec spec);
      [[nodiscard]] virtual bool AllowDispatch() const;
      [[nodiscard]] Result<SuspendedQuery> TakeSuspended(QueryId id);
      void Requeue(QueryId id);
      int count() const;
     private:
      Status Internal();
      bool helper_flag_;
    };
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintH1Test, StructMembersArePublicByDefault) {
  auto findings = LintSource("src/engine/foo.h", R"(
    struct Probe {
      bool Armed() const;
    };
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "H1");
}

TEST(LintH1Test, OtherDirectoriesAndSourcesNotInScope) {
  const char* snippet = R"(
    class Thing {
     public:
      bool Ok() const;
    };
  )";
  EXPECT_TRUE(LintSource("src/control/foo.h", snippet).empty());
  EXPECT_TRUE(LintSource("src/engine/foo.cc", snippet).empty());
}

TEST(LintH1Test, SuppressibleWithReason) {
  auto findings = LintSource("src/engine/foo.h", R"(
    class Engine {
     public:
      // wlm-lint: allow(H1) fluent setter, result intentionally optional
      bool Toggle();
    };
  )");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// H2 — include hygiene.
// ---------------------------------------------------------------------------

TEST(LintH2Test, FlagsIostreamInHeader) {
  auto findings = LintSource("src/telemetry/foo.h",
                             "#include <iostream>\nclass T {};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "H2");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintH2Test, IostreamInSourceIsFine) {
  auto findings =
      LintSource("src/telemetry/foo.cc",
                 "#include \"telemetry/foo.h\"\n#include <iostream>\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintH2Test, FlagsSelfHeaderNotFirst) {
  auto findings = LintSource(
      "src/core/request.cc",
      "#include <vector>\n#include \"core/request.h\"\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "H2");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintH2Test, SelfHeaderFirstOrAbsentIsClean) {
  EXPECT_TRUE(LintSource("src/core/request.cc",
                         "#include \"core/request.h\"\n#include <vector>\n")
                  .empty());
  // No self header among the includes: nothing to order against.
  EXPECT_TRUE(
      LintSource("src/core/main.cc", "#include <vector>\n").empty());
}

// ---------------------------------------------------------------------------
// Suppression plumbing.
// ---------------------------------------------------------------------------

TEST(LintSuppressionTest, AllowWithoutReasonIsItselfAFinding) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D1)
    long t = time(nullptr);
  )");
  // The malformed directive does not suppress, so D1 still fires too.
  EXPECT_TRUE(HasRule(findings, "A0"));
  EXPECT_TRUE(HasRule(findings, "D1"));
}

TEST(LintSuppressionTest, AllowOnlyCoversItsOwnRule) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D2) wrong rule id for this construct
    long t = time(nullptr);
  )");
  EXPECT_TRUE(HasRule(findings, "D1"));
}

TEST(LintSuppressionTest, TrailingCommentCoversSameLine) {
  auto findings = LintSource(
      "src/engine/foo.cc",
      "long t = time(nullptr);  // wlm-lint: allow(D1) debug label only\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// P1 — phase emits go through the Telemetry facade, not the EventLog.
// ---------------------------------------------------------------------------

TEST(LintP1Test, FlagsEventLogIncludeAndUseInEngineLayers) {
  auto findings = LintSource("src/execution/foo.cc", R"(
    #include "telemetry/event_log.h"
    void Emit(EventLog* log);
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"P1", "P1"}));
}

TEST(LintP1Test, FlagsDirectEventLogMemberInOverloadController) {
  auto findings = LintSource("src/overload/foo.h", R"(
    class Controller {
     private:
      EventLog* event_log_ = nullptr;
    };
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"P1"}));
}

TEST(LintP1Test, CoreAndTelemetryLayersOwnTheLogLegitimately) {
  // The WorkloadManager is the facade's driver and the telemetry layer is
  // the facade; both hold the log by design.
  auto findings = LintSource("src/core/workload_manager.h", R"(
    #include "telemetry/event_log.h"
    class WorkloadManager { EventLog event_log_; };
  )");
  EXPECT_FALSE(HasRule(findings, "P1"));
  findings = LintSource("src/telemetry/flight_recorder.cc", R"(
    #include "telemetry/event_log.h"
    void Dump(const EventLog* log);
  )");
  EXPECT_FALSE(HasRule(findings, "P1"));
}

TEST(LintP1Test, SuppressibleWithReason) {
  auto findings = LintSource("src/faults/foo.cc", R"(
    // wlm-lint: allow(P1) injector logs fault windows itself
    #include "telemetry/event_log.h"
    void Emit(EventLog* log);  // wlm-lint: allow(P1) injector logs fault windows itself
  )");
  EXPECT_FALSE(HasRule(findings, "P1"));
}

// ---------------------------------------------------------------------------
// Q1 — wait-queue containers must declare a capacity.
// ---------------------------------------------------------------------------

TEST(LintQ1Test, FlagsUnboundedQueueMembersInAdmissionScope) {
  auto findings = LintSource("src/admission/foo.h", R"(
    class Gate {
     private:
      std::deque<QueryId> wait_;
      std::vector<QueryId> pending_queue_;
    };
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"Q1", "Q1"}));
}

TEST(LintQ1Test, ACapacityConstantBoundsTheFile) {
  auto findings = LintSource("src/scheduling/foo.h", R"(
    class Gate {
     private:
      static constexpr int kQueueCapacity = 128;
      std::deque<QueryId> wait_;
    };
  )");
  EXPECT_FALSE(HasRule(findings, "Q1"));
}

TEST(LintQ1Test, SuppressibleWithReason) {
  auto findings = LintSource("src/core/foo.h", R"(
    class Gate {
     private:
      // wlm-lint: allow(Q1) drained synchronously every tick
      std::deque<QueryId> wait_;
    };
  )");
  EXPECT_FALSE(HasRule(findings, "Q1"));
}

TEST(LintQ1Test, OutsideWaitQueueLayersNotInScope) {
  auto findings = LintSource("src/telemetry/foo.h", R"(
    class Log {
     private:
      std::deque<Event> pending_queue_;
    };
  )");
  EXPECT_FALSE(HasRule(findings, "Q1"));
}

TEST(LintQ1Test, VectorsWithoutQueueLikeNamesAndLocalsAreClean) {
  auto findings = LintSource("src/admission/foo.cc", R"(
    #include "admission/foo.h"
    void Gate::Tick() {
      std::vector<double> samples_;
      std::deque<QueryId> scratch;
      std::vector<QueryId> results_;
      (void)scratch;
    }
  )");
  // samples_/results_ are vectors without wait-queue names; scratch has
  // no member suffix. None is a wait queue.
  EXPECT_FALSE(HasRule(findings, "Q1"));
}

// ---------------------------------------------------------------------------
// S1 — mutable static storage in library layers.
// ---------------------------------------------------------------------------

TEST(LintS1Test, FlagsFunctionLocalStaticRegistry) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    Registry& Global() {
      static Registry* registry = new Registry();
      return *registry;
    }
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "S1");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintS1Test, FlagsNamespaceScopeCounterAndClassStatic) {
  auto findings = LintSource("src/telemetry/foo.h", R"(
    static int64_t next_span_id = 0;
    class Tracer {
     public:
      static int live_instances_;
    };
  )");
  EXPECT_EQ(RuleIds(findings), (std::vector<std::string>{"S1", "S1"}));
}

TEST(LintS1Test, IgnoresImmutableStaticsAndStaticFunctions) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    static const std::vector<double>& Buckets();
    static constexpr int kPageBytes = 8192;
    static const char* kName = "engine";
    static double WeightOf(const Request& request) { return 1.0; }
    class Catalog {
     public:
      static Catalog TpchLike(double scale_factor);
    };
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintS1Test, OutOfScopeOutsideSrc) {
  auto findings = LintSource("tools/wlm-lint/foo.cc", R"(
    static int call_count = 0;
  )");
  EXPECT_FALSE(HasRule(findings, "S1"));
}

TEST(LintS1Test, SuppressibleWithReason) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(S1) intentionally process-wide debug hook
    static int debug_hook_calls = 0;
  )");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Infrastructure.
// ---------------------------------------------------------------------------

TEST(LintInfraTest, RuleCatalogIsNonEmptyAndSorted) {
  const auto& rules = Rules();
  ASSERT_GE(rules.size(), 6u);
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id));
  }
}

TEST(LintInfraTest, FindingsAreSortedAndFormattable) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    std::random_device rd;
    long t = time(nullptr);
  )");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LE(findings[0].line, findings[1].line);
  EXPECT_EQ(FormatFinding(findings[0]).substr(0, 20), "src/engine/foo.cc:2:");
}

TEST(LintInfraTest, LexerSurvivesRawStringsAndContinuations) {
  // A raw string containing `rand(` must not leak tokens into the rules,
  // and a continued #define must not swallow the next line.
  auto findings = LintSource("src/engine/foo.cc",
                             "const char* kJson = R\"x({\"f\":\"rand()\"})x\";\n"
                             "#define M(x) \\\n  (x)\n"
                             "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

// ---------------------------------------------------------------------------
// Suppression placement: trailing, line-above, stacked comment blocks, and
// trailing comments on #include lines must all reach the flagged construct.
// ---------------------------------------------------------------------------

TEST(LintSuppressionTest, LineAboveStatementSuppresses) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D1) operator-facing log filename only
    long t = time(nullptr);
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, StackedCommentBlockChainsToCode) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D1) wall clock feeds the operator display only;
    // the value never reaches a scheduling or selection decision,
    // so replay determinism is unaffected.
    long t = time(nullptr);
  )");
  EXPECT_TRUE(findings.empty());
}

TEST(LintSuppressionTest, DoesNotChainPastInterveningCode) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    // wlm-lint: allow(D1) covers only the next statement
    int x = 1;
    long t = time(nullptr);
  )");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "D1");
}

TEST(LintSuppressionTest, TrailingCommentOnIncludeLineSuppresses) {
  ProjectConfig config;
  config.layers = {{"core", 4}, {"engine", 2}};
  std::vector<SourceFile> files = {
      {"src/core/top.h", "struct Top {};\n"},
      {"src/engine/use.cc",
       "#include \"core/top.h\"  // wlm-lint: allow(T2) migration bridge, "
       "tracked in DESIGN.md\nvoid Use() {}\n"},
  };
  EXPECT_TRUE(LintProject(files, config).empty());
}

// ---------------------------------------------------------------------------
// T1 — taint propagation over the call graph.
// ---------------------------------------------------------------------------

TEST(LintT1Test, FlagsTransitiveClockReachability) {
  std::vector<SourceFile> files = {
      {"src/engine/now.cc", R"(
        double NowSeconds() { return static_cast<double>(time(nullptr)); }
        double Deadline() { return NowSeconds() + 5.0; }
        double Due() { return Deadline() * 2.0; }
      )"},
  };
  auto findings = LintProject(files);
  // The direct use is D1's finding; both transitive reachers are T1's.
  EXPECT_TRUE(HasRule(findings, "D1"));
  int t1 = 0;
  for (const Finding& f : findings) {
    if (f.rule == "T1") {
      ++t1;
      EXPECT_NE(f.message.find("time"), std::string::npos);
      EXPECT_NE(f.message.find("NowSeconds"), std::string::npos);
    }
  }
  EXPECT_EQ(t1, 2);
}

TEST(LintT1Test, PropagatesAcrossTranslationUnits) {
  std::vector<SourceFile> files = {
      {"src/engine/wrap.cc",
       "double WallNow() { return static_cast<double>(time(nullptr)); }\n"},
      {"src/scheduling/user.cc",
       "double Slack() { return WallNow() - 1.0; }\n"},
  };
  auto findings = LintProject(files);
  bool t1_in_user = false;
  for (const Finding& f : findings) {
    if (f.rule == "T1" && f.path == "src/scheduling/user.cc") {
      t1_in_user = true;
    }
  }
  EXPECT_TRUE(t1_in_user);
}

TEST(LintT1Test, CommonIsTheSanctionedBoundary) {
  std::vector<SourceFile> files = {
      {"src/common/rng.cc",
       "unsigned HardwareSeed() { return std::random_device{}(); }\n"},
      {"src/engine/user.cc",
       "unsigned Pick() { return HardwareSeed() % 7; }\n"},
  };
  auto findings = LintProject(files);
  EXPECT_FALSE(HasRule(findings, "D1"));  // common may name entropy
  EXPECT_FALSE(HasRule(findings, "T1"));  // and never taints its callers
}

TEST(LintT1Test, AllowD1WrapperDoesNotSeed) {
  std::vector<SourceFile> files = {
      {"src/telemetry/wall.cc", R"(
        double ExportTimestamp() {
          // wlm-lint: allow(D1) prometheus scrape timestamps are wall time
          return static_cast<double>(time(nullptr));
        }
        double Scrape() { return ExportTimestamp(); }
      )"},
  };
  auto findings = LintProject(files);
  EXPECT_TRUE(findings.empty());
}

TEST(LintT1Test, AllowT1StopsPropagationAtTheBlessedCaller) {
  std::vector<SourceFile> files = {
      {"src/engine/chain.cc", R"(
        double WallNow() { return static_cast<double>(time(nullptr)); }
        // wlm-lint: allow(T1) boundary: converts wall time to sim offsets
        double Bridge() { return WallNow(); }
        double Consumer() { return Bridge() + 1.0; }
      )"},
  };
  auto findings = LintProject(files);
  EXPECT_TRUE(HasRule(findings, "D1"));   // the raw use stays flagged
  EXPECT_FALSE(HasRule(findings, "T1"));  // but taint stops at Bridge
}

TEST(LintT1Test, QuietOnEntropyFreeCallGraph) {
  std::vector<SourceFile> files = {
      {"src/engine/a.cc", "int A() { return 1; }\nint B() { return A(); }\n"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

// ---------------------------------------------------------------------------
// T2 — layer DAG and include cycles.
// ---------------------------------------------------------------------------

namespace {
ProjectConfig LayeredConfig() {
  ProjectConfig config;
  config.layers = {{"common", 0}, {"engine", 2}, {"telemetry", 3},
                   {"core", 4}};
  return config;
}
}  // namespace

TEST(LintT2Test, FlagsUpwardInclude) {
  std::vector<SourceFile> files = {
      {"src/core/manager.h", "struct Manager {};\n"},
      {"src/engine/exec.cc",
       "#include \"core/manager.h\"\nvoid Exec() {}\n"},
  };
  auto findings = LintProject(files, LayeredConfig());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T2");
  EXPECT_EQ(findings[0].path, "src/engine/exec.cc");
  EXPECT_NE(findings[0].message.find("layering violation"),
            std::string::npos);
}

TEST(LintT2Test, FlagsPeerIncludeAtEqualRank) {
  ProjectConfig config;
  config.layers = {{"telemetry", 3}, {"workloads", 3}};
  std::vector<SourceFile> files = {
      {"src/telemetry/metrics.h", "struct M {};\n"},
      {"src/workloads/gen.cc",
       "#include \"telemetry/metrics.h\"\nvoid G() {}\n"},
  };
  EXPECT_TRUE(HasRule(LintProject(files, config), "T2"));
}

TEST(LintT2Test, AllowsDownwardInclude) {
  std::vector<SourceFile> files = {
      {"src/engine/exec.h", "struct Exec {};\n"},
      {"src/core/manager.cc",
       "#include \"engine/exec.h\"\nvoid M() {}\n"},
  };
  EXPECT_TRUE(LintProject(files, LayeredConfig()).empty());
}

TEST(LintT2Test, FlagsModuleMissingFromLayerMap) {
  std::vector<SourceFile> files = {
      {"src/engine/exec.h", "struct Exec {};\n"},
      {"src/mystery/box.cc",
       "#include \"engine/exec.h\"\nvoid B() {}\n"},
  };
  auto findings = LintProject(files, LayeredConfig());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T2");
  EXPECT_NE(findings[0].message.find("mystery"), std::string::npos);
  EXPECT_NE(findings[0].message.find("no layer rank"), std::string::npos);
}

TEST(LintT2Test, FlagsIncludeCycleEvenWithoutLayers) {
  std::vector<SourceFile> files = {
      {"src/engine/a.h", "#include \"engine/b.h\"\nstruct A {};\n"},
      {"src/engine/b.h", "#include \"engine/a.h\"\nstruct B {};\n"},
  };
  auto findings = LintProject(files);  // no layers configured
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T2");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
}

// ---------------------------------------------------------------------------
// T3 — telemetry registry consistency.
// ---------------------------------------------------------------------------

TEST(LintT3Test, FlagsEmittedButUnregisteredMetric) {
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc",
       "void E(Registry& m) { m.GetCounter(\"wlm_lost_total\")->Add(1); }\n"},
  };
  auto findings = LintProject(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T3");
  EXPECT_NE(findings[0].message.find("never registered"), std::string::npos);
}

TEST(LintT3Test, FlagsRegisteredButNeverEmittedMetric) {
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc",
       "void R(Registry& m) { m.SetHelp(\"wlm_dead_total\", \"gone\"); }\n"},
  };
  auto findings = LintProject(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T3");
  EXPECT_NE(findings[0].message.find("never emitted"), std::string::npos);
}

TEST(LintT3Test, ComposedPrefixMatchesRegisteredNames) {
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc", R"(
        void R(Registry& m) {
          m.SetHelp("wlm_requests_completed_total", "done");
          m.GetCounter(std::string("wlm_requests_") + outcome + "_total");
        }
      )"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT3Test, FederatedClusterSeriesDeriveFromShardRegistration) {
  // wlm_cluster_* families are produced at runtime by the federator's
  // prefix swap, so emitting one whose per-shard twin is registered is
  // not an unregistered-metric finding.
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc", R"(
        void R(Registry& m) {
          m.SetHelp("wlm_requests_total", "requests");
          m.GetCounter("wlm_requests_total")->Add(1);
          m.GetCounter("wlm_cluster_requests_total")->Add(1);
        }
      )"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT3Test, FederatedClusterRegistrationSatisfiedByShardEmission) {
  // The reverse direction: registering the cluster-level name while only
  // the per-shard twin is emitted is not dead telemetry — federation
  // materializes the derived series from the twin.
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc", R"(
        void R(Registry& m) {
          m.SetHelp("wlm_queue_depth", "depth");
          m.SetHelp("wlm_cluster_queue_depth", "cluster depth");
          m.GetGauge("wlm_queue_depth")->Set(1.0);
        }
      )"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT3Test, UnderivedClusterSeriesIsStillFlagged) {
  // A wlm_cluster_* name with no per-shard twin registered anywhere gets
  // no federation pardon.
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc",
       "void E(Registry& m) { "
       "m.GetCounter(\"wlm_cluster_phantom_total\")->Add(1); }\n"},
  };
  auto findings = LintProject(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T3");
  EXPECT_NE(findings[0].message.find("never registered"), std::string::npos);
}

TEST(LintT3Test, FlagsEventTypeNeverEmitted) {
  std::vector<SourceFile> files = {
      {"src/telemetry/ev.h", "enum class WlmEventType { kUsed, kDead };\n"},
      {"src/telemetry/ev.cc", R"(
        const char* WlmEventTypeToString(WlmEventType t) {
          switch (t) {
            case WlmEventType::kUsed: return "used";
            case WlmEventType::kDead: return "dead";
          }
          return "?";
        }
      )"},
      {"src/core/emit.cc", "void E() { Log(WlmEventType::kUsed); }\n"},
  };
  auto findings = LintProject(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T3");
  EXPECT_NE(findings[0].message.find("kDead"), std::string::npos);
  EXPECT_NE(findings[0].message.find("never emitted"), std::string::npos);
}

TEST(LintT3Test, FlagsEventTypeMissingFromToString) {
  std::vector<SourceFile> files = {
      {"src/telemetry/ev.h", "enum class WlmEventType { kA, kB };\n"},
      {"src/telemetry/ev.cc", R"(
        const char* WlmEventTypeToString(WlmEventType t) {
          if (t == WlmEventType::kA) return "a";
          return "?";
        }
      )"},
      {"src/core/emit.cc",
       "void E() { Log(WlmEventType::kA); Log(WlmEventType::kB); }\n"},
  };
  auto findings = LintProject(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T3");
  EXPECT_NE(findings[0].message.find("kB"), std::string::npos);
  EXPECT_NE(findings[0].message.find("WlmEventTypeToString"),
            std::string::npos);
}

TEST(LintT3Test, QuietOnConsistentRegistry) {
  std::vector<SourceFile> files = {
      {"src/telemetry/t.cc", R"(
        void R(Registry& m) {
          m.SetHelp("wlm_ok_total", "fine");
          m.GetCounter("wlm_ok_total")->Add(1);
        }
      )"},
      {"src/telemetry/ev.h", "enum class WlmEventType { kA };\n"},
      {"src/telemetry/ev.cc", R"(
        const char* WlmEventTypeToString(WlmEventType t) {
          if (t == WlmEventType::kA) return "a";
          return "?";
        }
      )"},
      {"src/core/emit.cc", "void E() { Log(WlmEventType::kA); }\n"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

// ---------------------------------------------------------------------------
// T4 — unused public API.
// ---------------------------------------------------------------------------

namespace {
// A header with one used and one unused public method, plus the .cc that
// defines them: definitions are not uses.
std::vector<SourceFile> GaugeFiles() {
  return {
      {"src/engine/gauge.h", R"(
        class Gauge {
         public:
          double Read() const;
          double Peak() const { return peak_; }
         private:
          double peak_ = 0.0;
        };
      )"},
      {"src/engine/gauge.cc",
       "#include \"engine/gauge.h\"\n"
       "double Gauge::Read() const { return 1.0; }\n"},
      {"src/core/user.cc",
       "double Use(const Gauge& g) { return g.Read(); }\n"},
  };
}
}  // namespace

TEST(LintT4Test, FlagsUnusedPublicMethod) {
  auto findings = LintProject(GaugeFiles());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "T4");
  EXPECT_EQ(findings[0].path, "src/engine/gauge.h");
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_NE(findings[0].message.find("'Peak'"), std::string::npos);
}

TEST(LintT4Test, BenchExampleAndTestFilesAreUsersNeverLinted) {
  for (const char* user : {"bench/bench_gauge.cc", "examples/gauge.cpp",
                           "perfbench/src/rigs.cc", "tests/gauge_test.cc"}) {
    std::vector<SourceFile> files = GaugeFiles();
    // The user file also breaks D1, which must not be reported: users
    // are indexed for names only.
    files.push_back(
        {user, "double Max(const Gauge& g) { return g.Peak() + time(0); }\n"});
    EXPECT_TRUE(LintProject(files).empty()) << user;
  }
}

TEST(LintT4Test, PrivateAndInternalFunctionsAreNotApi) {
  std::vector<SourceFile> files = {
      {"src/engine/box.h", R"(
        class Box {
         public:
          Box();
         private:
          void Hidden();
        };
        struct Row {
         private:
          int Secret() const { return 1; }
        };
        namespace {
        int Local() { return 2; }
        }
        static int FileOnly() { return 3; }
      )"},
      {"src/engine/box.cc",
       "void Box::Hidden() {}\nint Helper() { return 4; }\n"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT4Test, OverrideConstructorDestructorAndOperatorsAreExempt) {
  std::vector<SourceFile> files = {
      {"src/engine/shape.h", R"(
        class Shape {
         public:
          explicit Shape(int sides);
          virtual ~Shape() = default;
          virtual double Area() const = 0;
          bool operator==(const Shape& other) const;
          explicit operator bool() const;
          Shape& operator=(const Shape&) = default;
        };
        class Square : public Shape {
         public:
          Square();
          double Area() const override { return 1.0; }
          double Perimeter() const final;
        };
      )"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT4Test, AllowWithReasonSuppressesAndBareAllowIsA0) {
  std::vector<SourceFile> files = GaugeFiles();
  files[0].content = R"(
    class Gauge {
     public:
      double Read() const;
      // wlm-lint: allow(T4) read by the dashboard plug-in
      double Peak() const { return peak_; }
     private:
      double peak_ = 0.0;
    };
  )";
  EXPECT_TRUE(LintProject(files).empty());

  files[0].content = R"(
    class Gauge {
     public:
      double Read() const;
      double Peak() const { return peak_; }  // wlm-lint: allow(T4)
     private:
      double peak_ = 0.0;
    };
  )";
  auto findings = LintProject(files);
  EXPECT_TRUE(HasRule(findings, "A0"));
  EXPECT_TRUE(HasRule(findings, "T4"));
}

TEST(LintT4Test, MacroBodiesAndAddressTakingCountAsUses) {
  std::vector<SourceFile> files = {
      {"src/common/check.h", R"(
        struct Check {
          bool Passed() const;
          static void Hook(int);
        };
        #define WLM_CHECK(c) \
          if (!(c).Passed()) return
      )"},
      {"src/core/user.cc", "auto hook = &Check::Hook;\n"},
  };
  EXPECT_TRUE(LintProject(files).empty());
}

TEST(LintT4Test, SarifIsByteIdenticalAcrossRuns) {
  std::vector<SourceFile> files = GaugeFiles();
  files[2].content = "int Nothing() { return 0; }\n";  // Read is unused too
  std::vector<Finding> findings = LintProject(files);
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_EQ(ToSarif(findings), ToSarif(LintProject(files)));
}

TEST(LintT4Test, RuleCatalogListsT4WithRationale) {
  bool found = false;
  for (const RuleInfo& rule : Rules()) {
    if (std::string(rule.id) != "T4") continue;
    found = true;
    EXPECT_NE(std::string(rule.rationale).find("public function"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Baseline: accepted findings are absorbed line-for-line; new occurrences
// of the same pattern still fail.
// ---------------------------------------------------------------------------

TEST(LintBaselineTest, RoundTripAbsorbsEveryFinding) {
  auto findings = LintSource("src/engine/foo.cc", R"(
    long t = time(nullptr);
    std::random_device rd;
  )");
  ASSERT_EQ(findings.size(), 2u);
  std::string baseline = ToBaseline(findings);
  EXPECT_TRUE(ApplyBaseline(findings, baseline).empty());
}

TEST(LintBaselineTest, EachLineAbsorbsExactlyOneFinding) {
  // Two identical findings (same rule/path/message, different lines) but
  // the baseline accepted only one: the second must survive.
  auto findings = LintSource("src/engine/foo.cc",
                             "long a = time(nullptr);\n"
                             "long b = time(nullptr);\n");
  ASSERT_EQ(findings.size(), 2u);
  std::string baseline = ToBaseline({findings[0]});
  auto remaining = ApplyBaseline(findings, baseline);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].rule, "D1");
}

TEST(LintBaselineTest, IsLineNumberInsensitive) {
  // An edit above the accepted finding moves its line; the baseline must
  // still absorb it.
  auto before = LintSource("src/engine/foo.cc", "long t = time(nullptr);\n");
  auto after = LintSource("src/engine/foo.cc",
                          "int unrelated = 0;\nlong t = time(nullptr);\n");
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(before[0].line, after[0].line);
  EXPECT_TRUE(ApplyBaseline(after, ToBaseline(before)).empty());
}

// ---------------------------------------------------------------------------
// SARIF output: structurally sound and byte-identical across runs.
// ---------------------------------------------------------------------------

TEST(LintSarifTest, EmitsWellFormedResults) {
  auto findings = LintSource("src/engine/foo.cc",
                             "long t = time(nullptr);\n");
  ASSERT_EQ(findings.size(), 1u);
  std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"D1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/engine/foo.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  // Every catalog rule ships as driver metadata.
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos);
  }
}

TEST(LintSarifTest, ByteIdenticalAcrossRuns) {
  std::vector<SourceFile> files = {
      {"src/engine/now.cc", R"(
        double NowSeconds() { return static_cast<double>(time(nullptr)); }
        double Deadline() { return NowSeconds() + 5.0; }
      )"},
  };
  std::string a = ToSarif(LintProject(files));
  std::string b = ToSarif(LintProject(files));
  EXPECT_EQ(a, b);
}

TEST(LintSarifTest, EscapesMessageContent) {
  std::vector<Finding> findings = {
      {"src/a.cc", 1, "D1", "quote \" backslash \\ newline \n done"}};
  std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("quote \\\" backslash \\\\ newline \\n done"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// layers.toml parsing.
// ---------------------------------------------------------------------------

TEST(LintLayersTest, ParsesRanksAndIgnoresComments) {
  std::string error;
  auto layers = ParseLayersToml(
      "# comment\n[layers]\ncommon = 0  # leaf\nengine = 2\n", &error);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers.at("common"), 0);
  EXPECT_EQ(layers.at("engine"), 2);
}

TEST(LintLayersTest, RejectsMalformedAndDuplicateEntries) {
  std::string error;
  EXPECT_TRUE(ParseLayersToml("[layers]\nbogus line\n", &error).empty());
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_TRUE(
      ParseLayersToml("[layers]\na = 1\na = 2\n", &error).empty());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_TRUE(ParseLayersToml("no table at all\n", &error).empty());
}

}  // namespace
}  // namespace wlm::lint
