external float : string -> float -> string = "caml_format_float"
