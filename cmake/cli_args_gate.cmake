# CLI boundary gate (ctest): common-flag values no network can be built
# from must be rejected as usage errors — exit code 1 with the offending
# flag named on stderr — instead of aborting on an uncaught exception
# (--nodes=-5) or building a grid with a zero / non-finite cell size
# (--range=0|-1|nan). A tiny finite range (--range=1e-300) is valid.
#
# Invoked as:
#   cmake -DSPR_CLI=<path-to-spr_cli> -P cli_args_gate.cmake

if(NOT DEFINED SPR_CLI)
  message(FATAL_ERROR "cli_args_gate.cmake needs -DSPR_CLI=...")
endif()

# Each case: "<flag name>|<argument>".
set(cases
    "nodes|--nodes=-5"
    "range|--range=0"
    "range|--range=-1"
    "range|--range=nan")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag)
  list(GET parts 1 arg)
  execute_process(
    COMMAND "${SPR_CLI}" label ${arg}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT result STREQUAL "1")
    message(FATAL_ERROR "spr_cli label ${arg}: expected exit 1, got '${result}'")
  endif()
  string(FIND "${stderr}" "--${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "spr_cli label ${arg}: stderr does not name --${flag}: ${stderr}")
  endif()
endforeach()

# Valid values still build and label — including a vanishing but finite
# range, whose spatial grid must cap its cell count instead of casting
# ~1e302 columns to int.
foreach(args IN ITEMS "--nodes=50;--range=20" "--range=1e-300;--nodes=50")
  execute_process(
    COMMAND "${SPR_CLI}" label ${args}
    RESULT_VARIABLE ok_result
    OUTPUT_QUIET)
  if(NOT ok_result EQUAL 0)
    message(FATAL_ERROR "spr_cli label ${args} failed (exit ${ok_result})")
  endif()
endforeach()
