# Second labels for the multi-tier suites (appended to the directory's
# TEST_INCLUDE_FILES by tests/CMakeLists.txt).
#
# gtest_discover_tests flattens a "a;b" LABELS value through its
# POST_BUILD argument forwarding — only the first label survives, no
# matter how the semicolon is escaped — so the extra tier labels are
# applied here instead. This file is processed by ctest after the
# discovery files have defined the tests and their <target>_TESTS list
# variables, where set_tests_properties takes a proper CMake list.

# test_resilience + test_ckpt_store: the delta checkpoint store is both
# the recovery substrate (resilience tier) and its own subsystem
# (ctest -L checkpoint).
foreach(t ${test_resilience_TESTS} ${test_ckpt_store_TESTS})
  set_tests_properties("${t}" PROPERTIES LABELS "resilience;checkpoint")
endforeach()

# test_passes carries the health label alongside passes: the in-pass
# tripwires are part of the health contract.
foreach(t ${test_passes_TESTS})
  set_tests_properties("${t}" PROPERTIES LABELS "passes;health")
endforeach()

# test_analysis: the analysis sidecar rides the health snapshot ring
# and the rollback ladder, so the plugin tier doubles into the health
# lane (and its UBSan/TSan runs).
foreach(t ${test_analysis_TESTS})
  set_tests_properties("${t}" PROPERTIES LABELS "plugin;health")
endforeach()

# test_dt_control + test_adaptive: the adaptive dt tier (ctest -L
# adaptive) is part of the health contract too — the escalation ladder
# is the breach recovery path — so both suites also carry the health
# label and run in the health/UBSan/TSan lanes.
foreach(t ${test_dt_control_TESTS} ${test_adaptive_TESTS})
  set_tests_properties("${t}" PROPERTIES LABELS "adaptive;health")
endforeach()
