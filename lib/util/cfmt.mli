(** The C float formatter behind [Printf], without the format interpreter.

    [Printf.sprintf "%.17g" x] parses its format, builds a closure chain and
    ends in the runtime primitive [caml_format_float] with the format
    ["%.17g"]; calling the primitive directly gives the same bytes at about
    half the cost.  The hot writers ([Io.job_line], [Json]'s float
    fallback) use it. *)

external float : string -> float -> string = "caml_format_float"
(** [float fmt x] is C's [snprintf(fmt, x)] — byte for byte what
    [Printf.sprintf] prints for the same [%f]/[%e]/[%g] conversion.  [fmt]
    must be one such conversion and nothing else ("%.17g", "%.1f", ...);
    the primitive does not check it.  Non-finite values print as C does
    ([inf], [-inf], [nan]). *)
