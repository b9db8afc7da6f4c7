(* Prints the CLIs' link flags for the system named by its argument (dune's
   %{system}): a static link on Linux, the default link anywhere else. *)
let () = print_endline (if Sys.argv.(1) = "linux" then "(-ccopt -static)" else "()")
