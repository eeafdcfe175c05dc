# One gputn command-line regression case.
#
#   cmake -DGPUTN=<gputn binary> -DCASE=<cases/NAME.cmd> -DWORK=<empty dir>
#         -P cli_case.cmake
#
# NAME.cmd holds one command line per line: the arguments after `gputn`,
# split like a shell would. Blank lines and `#` comments are skipped. The
# commands run in order in WORK, so a later line can read what an earlier
# one wrote. The transcript (each command line, its stdout, its exit code)
# must equal NAME.expected byte for byte, with host-time figures masked. On a
# mismatch the actual transcript is left in WORK/actual.out.
#
# Two directives check what a pinned transcript cannot; each applies to the
# commands that follow it:
#   @stderr REGEX    the command's stderr matches REGEX
#   @distinct REGEX  the stdout lines matching REGEX, each stripped of a
#                    leading `[point id] `, are pairwise different
cmake_minimum_required(VERSION 3.16)

get_filename_component(name "${CASE}" NAME_WE)
get_filename_component(dir "${CASE}" DIRECTORY)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

file(STRINGS "${CASE}" lines)
set(transcript "")
set(stderr_regex "")
set(distinct_regex "")
set(picked "")
foreach(line IN LISTS lines)
  if(line MATCHES "^@stderr (.*)$")
    set(stderr_regex "${CMAKE_MATCH_1}")
    continue()
  elseif(line MATCHES "^@distinct (.*)$")
    set(distinct_regex "${CMAKE_MATCH_1}")
    continue()
  elseif(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  separate_arguments(argv UNIX_COMMAND "${line}")
  execute_process(COMMAND "${GPUTN}" ${argv}
                  WORKING_DIRECTORY "${WORK}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(REGEX REPLACE "[0-9]+\\.[0-9]+ s host time" "<t> s host time"
         out "${out}")
  string(APPEND transcript "$ gputn ${line}\n${out}[exit ${rc}]\n")
  if(NOT stderr_regex STREQUAL "" AND NOT err MATCHES "${stderr_regex}")
    message(FATAL_ERROR "gputn ${line}: stderr does not match "
                        "'${stderr_regex}':\n${err}")
  endif()
  if(NOT distinct_regex STREQUAL "")
    # Brackets and semicolons would confuse CMake's list splitting.
    string(REGEX REPLACE "(^|\n)\\[[^]\n]*\\] " "\\1" flat "${out}")
    string(REPLACE "[" "<" flat "${flat}")
    string(REPLACE "]" ">" flat "${flat}")
    string(REPLACE ";" "," flat "${flat}")
    string(REPLACE "\n" ";" flat "${flat}")
    foreach(l IN LISTS flat)
      if(l MATCHES "${distinct_regex}")
        list(APPEND picked "${l}")
      endif()
    endforeach()
  endif()
endforeach()

if(NOT distinct_regex STREQUAL "")
  list(LENGTH picked n)
  set(unique ${picked})
  list(REMOVE_DUPLICATES unique)
  list(LENGTH unique u)
  if(n LESS 2 OR NOT n EQUAL u)
    string(REPLACE ";" "\n" shown "${picked}")
    message(FATAL_ERROR "expected >= 2 pairwise different lines matching "
                        "'${distinct_regex}', got:\n${shown}")
  endif()
endif()

file(READ "${dir}/${name}.expected" expected)
if(NOT transcript STREQUAL expected)
  file(WRITE "${WORK}/actual.out" "${transcript}")
  message(FATAL_ERROR "transcript differs from ${dir}/${name}.expected; actual "
                      "in ${WORK}/actual.out:\n${transcript}")
endif()
