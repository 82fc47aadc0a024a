# Fails when a dirsim library references libgcc's __popcount*
# routines.  Holder counts go through util::popcount (util/bits.hh),
# which stays inline; without a popcnt instruction in the target,
# std::popcount, std::has_single_bit and std::bitset::count all become
# `call __popcountdi2`.
#
#   cmake -DNM=<nm> -DLIBRARIES=<lib.a,lib.a,...> -P check_no_popcount.cmake
#
# Prints "nm not found" and passes, which the ctest maps to a skip,
# when no nm is given.

if(NOT NM OR NOT EXISTS "${NM}")
    message("nm not found: the __popcount check is skipped")
    return()
endif()

string(REPLACE "," ";" libraries "${LIBRARIES}")
set(offenders "")
foreach(library IN LISTS libraries)
    execute_process(COMMAND "${NM}" -A "${library}"
                    OUTPUT_VARIABLE symbols
                    RESULT_VARIABLE status
                    ERROR_VARIABLE errors)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${NM} failed on ${library}: ${errors}")
    endif()
    string(REGEX MATCHALL "[^\n]*__popcount[^\n]*" found "${symbols}")
    list(APPEND offenders ${found})
endforeach()

list(LENGTH libraries count)
if(offenders)
    list(JOIN offenders "\n" text)
    message(FATAL_ERROR
        "libgcc popcount referenced; count holders with util::popcount:\n"
        "${text}")
endif()
message("no __popcount reference in ${count} libraries")
