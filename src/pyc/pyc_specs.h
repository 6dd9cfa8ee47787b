/**
 * @file
 * Predefined summaries for the Python/C reference-count APIs (Figure 7
 * of the paper), plus the attribute table the Cpychecker-style baseline
 * needs (which APIs return new/borrowed references or steal one).
 */

#ifndef RID_PYC_PYC_SPECS_H
#define RID_PYC_PYC_SPECS_H

#include <map>
#include <string>
#include <vector>

namespace rid::pyc {

/** Spec text for the Python/C APIs, parseable by summary::parseSpecText(). */
const std::string &pycSpecText();

/** Reference-behaviour attributes of one API (cpychecker-style). */
struct ApiAttr
{
    /** Returns a new reference (caller owns one count on the result). */
    bool returns_new_ref = false;
    /** Returns a borrowed reference (caller owns nothing). */
    bool returns_borrowed = false;
    /** Indices of arguments whose reference is stolen by the callee. */
    std::vector<int> steals_args;
    /** Per-argument refcount delta applied by the call (e.g. Py_INCREF
     *  is {+1 on arg 0}). */
    std::map<int, int> arg_delta;
    /** Effect domain of the counter this API manipulates ("ref" for
     *  refcounts; kernel tables mark e.g. kmalloc/kfree as "alloc").
     *  Propagated onto baseline reports so the scorer and `ridc
     *  diff-runs` treat both tools' reports uniformly. */
    std::string domain = "ref";
};

/** Attribute table for the APIs in pycSpecText(). */
const std::map<std::string, ApiAttr> &pycApiAttrs();

} // namespace rid::pyc

#endif // RID_PYC_PYC_SPECS_H
