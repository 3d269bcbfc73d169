(* Monotonic nanosecond clock (CLOCK_MONOTONIC via the bechamel stub),
   declared here unboxed and noalloc so that reading it inside a timed
   loop allocates nothing. *)

external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (now_raw ())
