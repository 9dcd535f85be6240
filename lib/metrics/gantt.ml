open Speedscale_model

let job_glyph id =
  if id < 0 then '?'
  else if id < 10 then Char.chr (Char.code '0' + id)
  else if id < 36 then Char.chr (Char.code 'a' + id - 10)
  else '*'

(* speed ramp glyphs, slowest to fastest *)
let speed_glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '#'; '@' |]

let render ?(width = 72) ?(show_speed = true) (s : Schedule.t) =
  let slices = Schedule.slices s in
  match slices with
  | [] -> "(empty schedule)"
  | first :: rest ->
    let lo, hi, smax =
      List.fold_left
        (fun (lo, hi, smax) (x : Schedule.slice) ->
          (Float.min lo x.t0, Float.max hi x.t1, Float.max smax x.speed))
        (first.t0, first.t1, first.speed)
        rest
    in
    let span = hi -. lo in
    let cell_time c = lo +. ((float_of_int c +. 0.5) *. span /. float_of_int width) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Fmt.str "time %.3g .. %.3g  (%d columns, %.3g per cell)\n" lo hi
         width (span /. float_of_int width));
    for proc = 0 to s.machines - 1 do
      let jobs_row = Bytes.make width '.' in
      let speed_row = Bytes.make width ' ' in
      for c = 0 to width - 1 do
        let t = cell_time c in
        match
          List.find_opt
            (fun (x : Schedule.slice) ->
              x.proc = proc && x.t0 <= t && t < x.t1)
            slices
        with
        | None -> ()
        | Some x ->
          Bytes.set jobs_row c (job_glyph x.job);
          if smax > 0.0 then begin
            let idx =
              int_of_float
                (Float.round
                   (x.speed /. smax
                   *. float_of_int (Array.length speed_glyphs - 1)))
            in
            Bytes.set speed_row c
              speed_glyphs.(max 0 (min (Array.length speed_glyphs - 1) idx))
          end
      done;
      Buffer.add_string buf
        (Fmt.str "p%-2d |%s|\n" proc (Bytes.to_string jobs_row));
      if show_speed then
        Buffer.add_string buf
          (Fmt.str "    |%s| speed (max %.3g)\n"
             (Bytes.to_string speed_row) smax)
    done;
    Buffer.contents buf
